"""Both rate solvers against a test-local copy of the loop they replaced.

The reference keeps one clamp loop per framework in the form it had before
``_clamped_rates`` took over the re-solve: each framework's closure computes
its own free key mass ``1 - G_clamped``, its own rate expression and its own
feasibility, and the memory closure returns placeholder rates (inf where
G/H overflowed, 0 elsewhere) for the pass that clamps those regions.  Both
solvers must give the reference's rates to the bit, NaN in the same batch
entries, and the same error type and message for one layout.  Masses reach
down to subnormals (so G/H overflows or underflows) and need not sum to 1
(so beta can fall below -1023 once regions clamp).
"""

from itertools import repeat

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plbf import InfeasibleError, optimal_fprs_for_fpr, optimal_fprs_for_memory
from plbf.optimizer import FPR_FLOOR, _log2, _row_sums

REFERENCE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_clamped_rates(g, h, free_rates):
    """The loop as it was: the framework's closure gives the whole re-solve."""
    rows = np.arange(len(g))
    clamped = np.zeros(g.shape, dtype=bool)
    g_clamped = np.zeros(len(g))
    h_clamped = np.zeros(len(g))
    f, feasible = free_rates(rows, ~clamped, g_clamped, h_clamped)
    while True:
        f[rows[~feasible]] = np.nan
        newly = ~clamped & (f > 1.0)
        rows = np.flatnonzero(newly.any(axis=1))
        if not rows.size:
            return np.maximum(f, FPR_FLOOR, out=f), clamped, g_clamped, h_clamped
        clamped |= newly
        f[newly] = 1.0
        g_clamped[rows] = _row_sums(g[rows], clamped[rows])
        h_clamped[rows] = _row_sums(h[rows], clamped[rows])
        rates, feasible = free_rates(rows, ~clamped[rows], g_clamped[rows], h_clamped[rows])
        f[rows] = np.where(clamped[rows], 1.0, rates)


def reference_fpr(g, h, target_fpr):
    """Rates per row, and the error a one-layout call on row 0 would raise."""

    def free_rates(rows, free, g_clamped, h_clamped):
        budget = target_fpr - h_clamped
        head_room = 1.0 - g_clamped
        rates = np.empty((len(rows), g.shape[1]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in range(g.shape[1]):
                rates[:, i] = g[rows, i] * budget / (h[rows, i] * head_room)
        feasible = np.where(
            free.any(axis=1), (budget > 0.0) & (head_room > 0.0), h_clamped <= target_fpr
        )
        return rates, feasible

    fprs, clamped, _, h_clamped = reference_clamped_rates(g, h, free_rates)
    if clamped[0].all():
        message = (
            f"clamped regions alone carry rate {h_clamped[0]:.6g} > target {target_fpr:.6g}"
        )
    else:
        message = (
            f"cannot meet target rate {target_fpr:.6g}: clamped regions "
            f"already carry {h_clamped[0]:.6g}"
        )
    return fprs, message


def reference_memory(g, h, memory_bits, scaled_keys):
    """Rates per row, and the error a one-layout call on row 0 would raise."""
    with np.errstate(over="ignore"):
        ratio = g / h
    overflowed = ratio == np.inf
    # the floor gives a ratio that underflowed to 0 a log2 and changes no
    # positive ratio
    region_div = g * _log2(np.maximum(ratio, 2.0**-1074))

    def free_rates(rows, free, g_clamped, _h_clamped):
        head_room = 1.0 - g_clamped
        k_sum = _row_sums(region_div[rows], free)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            beta = (memory_bits + scaled_keys * k_sum) / (scaled_keys * head_room)
            exponents = np.minimum(-beta, 1023.0)
            powers = map(pow, repeat(2.0), memoryview(exponents))
            scale = np.fromiter(powers, np.float64, len(exponents))
            rates = np.empty((len(rows), g.shape[1]))
            for i in range(g.shape[1]):
                rates[:, i] = scale * g[rows, i] / h[rows, i]
        overflow = k_sum == np.inf
        rates[overflow] = np.where(overflowed[rows[overflow]], np.inf, 0.0)
        return rates, ~free.any(axis=1) | (head_room > 0.0)

    fprs, _, g_clamped, _ = reference_clamped_rates(g, h, free_rates)
    message = (
        f"cannot spend {memory_bits:.6g} bits: clamped regions "
        f"already carry key mass {g_clamped[0]:.6g}"
    )
    return fprs, message


# subnormal, tiny, normalized-looking and unnormalized masses
masses = st.one_of(
    st.floats(5e-324, 4.0, allow_subnormal=True),
    st.sampled_from([5e-324, 1e-310, 1e-12, 0.5, 1.0, 4.0]),
)


@st.composite
def rate_batches(draw):
    k = draw(st.integers(1, 8))
    n_rows = draw(st.integers(1, 5))
    row = st.lists(masses, min_size=k, max_size=k)
    g = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
    h = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
    if draw(st.booleans()):  # rows that sum to 1, as a sweep's layouts do
        g, h = (np.maximum(x / x.sum(axis=1, keepdims=True), 5e-324) for x in (g, h))
    return g, h


def check_against_reference(solver, reference, g, h):
    batch = solver(g, h)
    want, _ = reference(g, h)
    assert batch.tobytes() == want.tobytes()
    for r in range(len(g)):
        want_row, message = reference(g[r : r + 1], h[r : r + 1])
        try:
            one = solver(g[r].tolist(), h[r].tolist())
        except InfeasibleError as exc:
            # a NaN first rate marks the layout infeasible; 0/0 from
            # subnormal products can also leave one NaN in a solved row
            assert np.isnan(want_row[0, 0])
            assert str(exc) == message
            continue
        assert isinstance(one, list)
        assert np.array(one).tobytes() == want_row.tobytes() == batch[r].tobytes()


@REFERENCE_SETTINGS
@given(
    batch=rate_batches(),
    target=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([5e-312, 1e-300]),
    ),
)
# every region clamps within the target, then over it
@example(batch=(np.array([[1.0, 1.0]]), np.array([[0.2, 0.2]])), target=0.5)
@example(batch=(np.array([[1.0, 1.0]]), np.array([[0.3, 0.3]])), target=0.5)
def test_fpr_rates_match_reference(batch, target):
    g, h = batch
    check_against_reference(
        lambda gm, hm: optimal_fprs_for_fpr(gm, hm, target),
        lambda gm, hm: reference_fpr(gm, hm, target),
        g,
        h,
    )


@REFERENCE_SETTINGS
@given(
    batch=rate_batches(),
    memory_bits=st.one_of(st.just(0.0), st.floats(0.0, 1e12)),
    scaled_keys=st.floats(1e-3, 1e7),
)
# G/H overflows in region 0 of both rows
@example(
    batch=(
        np.array([[0.5, 0.3, 0.2], [1.0, 1.0, 1.0]]),
        np.array([[5e-324, 0.5, 0.5], [1e-310, 0.5, 1.0]]),
    ),
    memory_bits=10.0,
    scaled_keys=100.0,
)
# unnormalized masses: beta falls below -1023 once regions clamp
@example(
    batch=(
        np.array([[0.081, 0.23, 0.27, 0.061, 0.315, 0.124]]),
        np.array([[0.476, 0.608, 0.904, 0.142, 0.632, 0.019]]),
    ),
    memory_bits=3.5,
    scaled_keys=57.5,
)
# the clamped region carries all the key mass: infeasible
@example(
    batch=(np.array([[1.0, 1e-12]]), np.array([[1e-12, 1.0]])),
    memory_bits=1e-8,
    scaled_keys=1000.0,
)
def test_memory_rates_match_reference(batch, memory_bits, scaled_keys):
    g, h = batch
    check_against_reference(
        lambda gm, hm: optimal_fprs_for_memory(gm, hm, memory_bits, scaled_keys),
        lambda gm, hm: reference_memory(gm, hm, memory_bits, scaled_keys),
        g,
        h,
    )
