"""Demo: lexical SQL cleaning and weighted operator complexity scoring.

Run with: python3 demos/01_complexity_scoring.py
"""
from slotcast import analyze_sql, clean_query, default_weights
from slotcast.sql_analyzer import DISPLAY_NAMES, OPERATOR_KINDS

QUERY = """
-- daily rollup with a dedup pass
WITH dedup AS (
  SELECT DISTINCT account_id, asset_id FROM `proj.inventory.assets`
)
SELECT d.account_id, COUNT(*) AS n,
       ROW_NUMBER() OVER (PARTITION BY d.account_id) AS rk
FROM dedup d
JOIN `proj.billing.usage` u ON d.asset_id = u.asset_id
WHERE REGEXP_CONTAINS(u.sku, 'compute')
GROUP BY d.account_id
ORDER BY n DESC
"""


def main():
    cleaned = clean_query(QUERY)
    print("normalized text:")
    print(" ", " ".join(cleaned.tokens)[:120], "...")
    print()

    report = analyze_sql(QUERY)
    weights = default_weights()
    print(f"{'operator':<18}{'count':>6}{'weight':>8}{'contribution':>14}")
    for kind in OPERATOR_KINDS:
        if report.counts[kind]:
            print(f"{DISPLAY_NAMES[kind]:<18}{report.counts[kind]:>6}"
                  f"{weights[kind]:>8}{report.counts[kind] * weights[kind]:>14}")
    print(f"\ntotal complexity score: {report.score}")
    print("routing:", "complex model" if report.score >= 26 else "simple model")


if __name__ == "__main__":
    main()
