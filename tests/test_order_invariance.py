"""I_n as a function of the data, not of its layout: duplicating every
row doubles it and permuting the rows keeps it, on random data; and
every mixed I_n lies in the Kolchinsky-Tracey bracket of pairwise
distances (Kolchinsky & Tracey 2017, "Estimating mixture entropy with
pairwise distances", Entropy 19(7):361), a bound that shares no code
with the quadrature."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendrofit import Dataset, QuadratureSpec, kernels
from dendrofit.estimators import _mixture_mi, pair_mi_table

from conftest import mixed_schema

KINDS = "dgDgdgDg"
RELATIVE = 1e-11


def random_dataset(seed: int, n: int = 300) -> Dataset:
    """Columns of every kind that all depend on one latent normal, so that
    every pair has a positive I_n; the Gaussian cells have no ties."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal(n)
    columns = []
    for ch in KINDS:
        noisy = latent + rng.standard_normal(n)
        if ch == "g":
            columns.append(rng.uniform(0.5, 2.0) * noisy + rng.uniform(-3.0, 3.0))
        else:
            cuts = [0.0] if ch == "d" else [-0.5, 0.5]
            columns.append(np.digitize(noisy, cuts).astype(np.int64))
    return Dataset(mixed_schema(KINDS), tuple(columns))


def pair_kinds(dataset: Dataset) -> np.ndarray:
    """A mask of the discrete pairs among the pairs i < j, in canonical
    order."""
    i, j = np.triu_indices(dataset.schema.n_vars, 1)
    discrete = np.array([dataset.schema.is_discrete(v) for v in range(dataset.schema.n_vars)])
    return discrete[i] & discrete[j]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_duplicating_every_row_doubles_each_i_n(seed):
    dataset = random_dataset(seed)
    doubled = Dataset(dataset.schema, tuple(np.concatenate([c, c]) for c in dataset.columns))
    discrete = pair_kinds(dataset)
    once, twice = pair_mi_table(dataset)[2], pair_mi_table(doubled)[2]
    assert (once > 0).all()
    assert (twice[discrete] == 2 * once[discrete]).all()
    others = ~discrete
    assert (np.abs(twice[others] - 2 * once[others]) <= RELATIVE * 2 * once[others]).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permuting_the_rows_keeps_each_i_n(seed):
    dataset = random_dataset(seed)
    order = np.random.default_rng(100 + seed).permutation(dataset.n)
    permuted = Dataset(dataset.schema, tuple(c[order] for c in dataset.columns))
    discrete = pair_kinds(dataset)
    before, after = pair_mi_table(dataset)[2], pair_mi_table(permuted)[2]
    assert (before > 0).all()
    assert after[discrete].tobytes() == before[discrete].tobytes()
    others = ~discrete
    assert (np.abs(after[others] - before[others]) <= RELATIVE * before[others]).all()


def pairwise_bound(probs, means, var, scale):
    """-sum_i p_i ln sum_j p_j exp(-D_ij), D_ij = (m_i - m_j)^2 / (scale var):
    scale 8 gives the Bhattacharyya lower bound on the mixture's mutual
    information with its class, scale 2 the KL upper bound."""
    distance = (means[:, None] - means[None, :]) ** 2 / (scale * var)
    return float(-(probs * np.log((probs * np.exp(-distance)).sum(axis=1))).sum())


@st.composite
def mixtures(draw):
    """(probs, means, var) of 2 to 8 classes with one variance, the class
    means at most 0 to 400 sd apart."""
    k = draw(st.integers(2, 8))
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=k, max_size=k)), float)
    sd = 2.0 ** draw(st.integers(-10, 10))
    spread = draw(st.floats(0.0, 400.0))
    positions = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    centre = draw(st.floats(-1e3, 1e3))
    return weights / weights.sum(), centre + spread * sd * positions, sd * sd


# one mixture at each separation: none, a few sd (the separable form of
# the kernel) and 400 sd (the direct form)
EXAMPLES = [
    (np.array([0.25, 0.75]), np.array([1.0, 1.0]), 1.0),
    (np.array([0.125, 0.5, 0.375]), np.array([-3.0, 0.5, 4.0]), 4.0),
    (np.array([0.5, 0.25, 0.25]), np.array([0.0, 200.0, 400.0]), 1.0),
]


def mixture_mi(probs, means, var):
    values, failures = _mixture_mi(probs[None], means[None], np.array([var]), QuadratureSpec())
    assert failures == []
    return float(values[0])


@settings(max_examples=300, deadline=None)
@given(mixture=mixtures())
@example(mixture=EXAMPLES[0])
@example(mixture=EXAMPLES[1])
@example(mixture=EXAMPLES[2])
def test_mixed_mi_lies_in_the_pairwise_distance_bracket(mixture):
    probs, means, var = mixture
    value = mixture_mi(probs, means, var)
    lower, upper = pairwise_bound(probs, means, var, 8.0), pairwise_bound(probs, means, var, 2.0)
    assert lower - (1e-7 * abs(lower) + 1e-10) <= value <= upper + (1e-7 * abs(upper) + 1e-10)


def test_the_examples_take_both_forms_of_the_kernel():
    """Each call of kernels._direct is handed the mixtures beyond the
    separable form's range: none for a mixture in range, one otherwise."""
    with mock.patch.object(kernels, "_direct", wraps=kernels._direct) as direct:
        for probs, means, var in EXAMPLES:
            mixture_mi(probs, means, var)
    assert {len(call.args[0]) for call in direct.call_args_list} == {0, 1}
