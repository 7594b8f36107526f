"""Free-semigroup words, the degree-truncated full Fock space, and the one
word walk every per-word product runs through.

A word is a finite sequence of generator indices in 1..n; the empty word is
the semigroup identity. The truncated Fock space keeps the orthonormal basis
e_alpha for all words of length at most N, ordered by length and then
lexicographically, so every vector and every operator the package reports
has a reproducible basis. That order is index arithmetic: word
g_{a_1} ... g_{a_m} sits at the slice offset of degree m plus its letters
read as the base-n digits a_1 - 1, ..., a_m - 1, so ``TruncatedFock`` stores
no word and ``Word`` appears only at the boundary (polynomial terms and
``word_operator``).

``word_products`` walks the words degree by degree: the block of g_i b is
the block of b times op_i, so the block of alpha = g_{a_1} ... g_{a_m} is
start @ op_{a_m} @ ... @ op_{a_1}, the product along the reversed word. With
ops T_i^* that is start @ T_alpha^*: the Poisson kernel, and the kernel
blocks that the characteristic function's coefficients are built from.

The left and right creation operators are never stored as matrices: creation
by g_i maps slice m onto the rows of slice m + 1 that ``TruncatedFock.child_rows``
names, and callers gather rows through it. Their compressions to a constrained
subspace are the per-degree blocks of ``ideals.constrained_shifts``.

Truncation rule: creation operators annihilate the top degree slice, which
keeps them endomorphisms of one space. Identities that move weight upward in
degree are therefore exact only on the degree <= N-1 part; adjoints lower
degree and are exact everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Word:
    """An element of the free semigroup on n generators (empty = identity)."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        letters = tuple(int(x) for x in self.letters)
        if any(x < 1 for x in letters):
            raise InvalidParameterError(f"generator indices must be >= 1, got {letters}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def reverse(self) -> "Word":
        return Word(self.letters[::-1])

    def __repr__(self) -> str:
        if not self.letters:
            return "g0"
        return "".join(f"g{i}" for i in self.letters)


def word_products(start: np.ndarray, ops: Sequence[np.ndarray], depth: int) -> np.ndarray:
    """Blocks start @ op_{a_m} @ ... @ op_{a_1} for every word a_1 ... a_m of
    length <= depth, stacked along axis 0 in basis order.

    Degree m is ``concatenate([stack_{m-1} @ op_i for i])``: in basis order
    g_i b follows the n^(m-1) words of every earlier first letter, so its
    block is (block of b) @ op_i. The result has shape (#words,) + start.shape
    with the op shapes chained on the last axis."""
    stacks = [np.asarray(start)[None]]
    for _ in range(depth):
        stacks.append(np.concatenate([stacks[-1] @ op for op in ops]))
    return np.concatenate(stacks)


class TruncatedFock:
    """Orthonormal word basis of the full Fock space up to a fixed degree."""

    def __init__(self, n: int, max_degree: int):
        self.n = int(n)
        self.max_degree = int(max_degree)
        offsets = [0]
        for m in range(self.max_degree + 1):
            offsets.append(offsets[-1] + self.n**m)
        self.slice_offsets: tuple[int, ...] = tuple(offsets)
        self.degrees = np.repeat(np.arange(self.max_degree + 1), np.diff(offsets))

    @property
    def dim(self) -> int:
        return self.slice_offsets[-1]

    def slice_range(self, m: int) -> slice:
        if not 0 <= m <= self.max_degree:
            raise InvalidParameterError(f"degree {m} outside [0, {self.max_degree}]")
        return slice(self.slice_offsets[m], self.slice_offsets[m + 1])

    def word_index(self, word: Word) -> int | None:
        """Basis index of e_word, or None if the word exceeds the truncation
        or uses a generator beyond n."""
        if len(word) > self.max_degree or any(x > self.n for x in word.letters):
            return None
        digits = 0
        for x in word.letters:
            digits = digits * self.n + (x - 1)
        return self.slice_offsets[len(word)] + digits

    def child_rows(self, side: Literal["left", "right"], i: int, m: int) -> slice:
        """The rows of slice m + 1 (0 <= m < N) that are the g_i-children of
        slice m, in parent order: word j has left child (i-1) n^m + j
        (e_a -> e_{g_i a}, a block) and right child j n + (i-1) (stride n)."""
        if not 1 <= i <= self.n:
            raise InvalidParameterError(f"generator index {i} outside 1..{self.n}")
        if side not in ("left", "right"):
            raise InvalidParameterError(f"side must be 'left' or 'right', got {side!r}")
        if not 0 <= m < self.max_degree:
            raise InvalidParameterError(f"degree {m} has no children below the truncation {self.max_degree}")
        return slice((i - 1) * self.n**m, i * self.n**m) if side == "left" else slice(i - 1, None, self.n)

    def __repr__(self) -> str:
        return f"TruncatedFock(n={self.n}, max_degree={self.max_degree}, dim={self.dim})"


def word_operator(ops: Iterable[np.ndarray], word: Word) -> np.ndarray:
    """Letter-ordered operator product T_alpha; the empty word gives the identity."""
    ops = list(ops)
    if not ops:
        raise InvalidParameterError("need at least one operator")
    dim = ops[0].shape[0]
    result = np.eye(dim, dtype=complex)
    for letter in word.letters:
        result = result @ ops[letter - 1]
    return result
