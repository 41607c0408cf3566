"""Exact arbitrary-precision rational arithmetic, number fields with
certified complex embeddings, and linear algebra over Q."""

from .linalg import Matrix, SolveResult, det, inverse, kernel, rank, rref, solve_linear
from .numberfield import (ComplexEmbedding, FieldElement, NumberField,
                          certified_sign, conjugation_automorphism,
                          mult_matrix, nf_create, nf_embeddings,
                          roots_in_field)

__all__ = [
    "Matrix", "SolveResult", "det", "inverse", "kernel", "rank", "rref",
    "solve_linear", "ComplexEmbedding", "FieldElement", "NumberField",
    "certified_sign", "conjugation_automorphism", "mult_matrix",
    "nf_create", "nf_embeddings", "roots_in_field",
]
