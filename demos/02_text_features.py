"""Demo: TF-IDF n-gram vectorization and exact truncated-SVD text embeddings.

Run with: python3 demos/02_text_features.py
"""
import numpy as np

from slotcast import clean_query
from slotcast.featurizer import (fit_svd, fit_text, project_text,
                                 transform_text_corpus)

CORPUS = [
    "SELECT a FROM `p.d.t` GROUP BY a",
    "SELECT a, b FROM `p.d.t` GROUP BY a, b ORDER BY a",
    "SELECT DISTINCT x FROM `p.d.u`",
    "SELECT x FROM `p.d.u` JOIN `p.d.v` v ON x = v.x",
    "SELECT x FROM `p.d.u` CROSS JOIN `p.d.w`",
    "WITH c AS (SELECT a FROM `p.d.t`) SELECT a FROM c",
    "SELECT COUNT(DISTINCT a) FROM `p.d.t` GROUP BY b",
    "UPDATE `p.d.t` SET a = 1 WHERE b = 2",
]


def main():
    cleaned = [clean_query(q) for q in CORPUS]
    state = fit_text(cleaned, min_df=2)
    matrix = transform_text_corpus(state, cleaned)
    print(f"corpus: {len(CORPUS)} queries, vocabulary: {len(state.vocabulary)} "
          f"uni/bigrams, tf-idf matrix {matrix.shape}, "
          f"nnz density {matrix.indptr[-1] / np.prod(matrix.shape):.2f}")

    basis = fit_svd(matrix, k=4)
    print(f"svd basis: {basis.components.shape[0]} components, "
          f"singular values {np.round(basis.singular_values, 3)}")

    embedded = project_text(basis, matrix)
    sims = embedded @ embedded.T
    print("\npairwise similarity in the embedded space (rounded):")
    print(np.round(sims, 2))
    print("\nnote: the two GROUP BY rollups (rows 0 and 1) land close together,")
    print("the UPDATE statement (row 7) sits apart from the SELECTs.")


if __name__ == "__main__":
    main()
