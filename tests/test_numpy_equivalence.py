"""The stdlib fluid solver and QUIC draw blocks equal the numpy code they replaced.

``src/`` imports no numpy.  Two places once did, and both replacements must
reproduce them bit for bit, because their floats feed replayed digests:

* :meth:`FluidSolver.solve_groups` (and its dense adapter
  :meth:`FluidSolver.max_min_rates`) against the numpy water-filling solver,
  kept below verbatim as the oracle;
* :meth:`QUICWorkloadGenerator._draw` blocks against
  ``numpy.random.RandomState(seed)``'s ``exponential`` / ``randint`` /
  ``random_sample``.

numpy is only a test dependency, so the module skips without it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.netem.fluid import _RATE_EPS, FluidSolver  # noqa: E402
from repro.netem.simulator import Simulator  # noqa: E402
from repro.netem.trafficgen import QUICWorkloadGenerator  # noqa: E402


def numpy_max_min_rates(
    capacities: np.ndarray, membership: np.ndarray, demands: np.ndarray
) -> np.ndarray:
    """The numpy solver ``FluidSolver.max_min_rates`` used to be (the oracle)."""
    flows = demands.shape[0]
    rates = np.zeros(flows)
    if flows == 0:
        return rates
    fixed = np.zeros(flows, dtype=bool)
    residual = capacities.astype(float).copy()
    membership = membership.astype(bool)
    # Flows crossing no registered link are only demand-limited.
    for _ in range(flows + capacities.shape[0] + 1):
        unfixed = ~fixed
        if not unfixed.any():
            break
        per_link_unfixed = membership[:, unfixed].sum(axis=1)
        share = np.full(capacities.shape[0], np.inf)
        loaded = per_link_unfixed > 0
        share[loaded] = np.maximum(residual[loaded], 0.0) / per_link_unfixed[loaded]
        # Per-flow ceiling on the *increment*: the tightest link share or
        # the remaining demand headroom, whichever comes first.
        # ``initial`` keeps the reduction defined when no link is
        # registered at all (L=0): such flows are purely demand-limited.
        link_limit = np.where(membership, share[:, None], np.inf).min(axis=0, initial=np.inf)
        headroom = np.where(unfixed, demands - rates, np.inf)
        increment = np.minimum(link_limit, headroom)
        delta = increment[unfixed].min()
        if not np.isfinite(delta):
            # Unconstrained flows: cap at demand and finish.
            rates[unfixed] = demands[unfixed]
            break
        delta = max(0.0, delta)
        rates[unfixed] += delta
        residual -= membership[:, unfixed].sum(axis=1) * delta
        # Fix demand-satisfied flows and every flow on a saturated link.
        saturated_links = loaded & (residual <= _RATE_EPS)
        on_saturated = membership[saturated_links, :].any(axis=0)
        fixed |= (rates >= demands - _RATE_EPS) | (unfixed & on_saturated)
    return rates


# ---------------------------------------------------------------------------
# Water-filling: group solver and dense adapter against the numpy oracle
# ---------------------------------------------------------------------------


@st.composite
def instances(draw):
    """``(capacities, paths, path_of, demands)``: flow ``f`` crosses ``paths[path_of[f]]``."""
    links = draw(st.integers(0, 8))
    flows = draw(st.integers(0, 40))
    capacities = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e9), st.integers(1, 100).map(float)),
            min_size=links,
            max_size=links,
        )
    )
    # A few paths means many flows share one; up to one per flow means most
    # paths are unshared, and two paths may or may not overlap.
    paths = draw(
        st.lists(
            st.frozensets(st.integers(0, links - 1)) if links else st.just(frozenset()),
            min_size=1,
            max_size=max(1, flows),
        )
    )
    path_of = draw(st.lists(st.integers(0, len(paths) - 1), min_size=flows, max_size=flows))
    demands = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.just(float("inf")),
                st.floats(0.0, 1e9),
                st.integers(1, 100).map(float),
            ),
            min_size=flows,
            max_size=flows,
        )
    )
    return capacities, [sorted(path) for path in paths], path_of, demands


@settings(max_examples=100, deadline=None)
@given(instances())
def test_group_solver_and_dense_adapter_equal_the_numpy_solver(instance):
    capacities, paths, path_of, demands = instance
    membership = np.zeros((len(capacities), len(demands)), dtype=bool)
    groups = {}
    for flow, path in enumerate(path_of):
        membership[paths[path], flow] = True
        groups.setdefault(path, (paths[path], []))[1].append(flow)
    expected = numpy_max_min_rates(
        np.array(capacities, dtype=float), membership, np.array(demands, dtype=float)
    ).tolist()

    dense = FluidSolver.max_min_rates(
        np.array(capacities), membership, np.array(demands, dtype=float)
    )
    grouped = FluidSolver.solve_groups(capacities, groups.values(), demands)

    assert dense == expected
    assert grouped == expected
    assert all(type(rate) is float for rate in dense + grouped)


def test_group_solver_rejects_groups_that_miss_or_repeat_a_flow():
    with pytest.raises(ValueError):
        FluidSolver.solve_groups([10.0], [([0], [0])], [5.0, 5.0])
    with pytest.raises(ValueError):
        FluidSolver.solve_groups([10.0], [([0], [0, 1]), ([], [1])], [5.0, 5.0])


# ---------------------------------------------------------------------------
# QUIC draw blocks against numpy.random.RandomState
# ---------------------------------------------------------------------------


class _BlockSeeds:
    """Stands in for a generator's ``_rng``: each block refill takes the next seed."""

    def __init__(self, seeds) -> None:
        self._seeds = iter(seeds)

    def randrange(self, stop: int) -> int:
        assert stop == 2**32
        return next(self._seeds)


class _Endpoint:
    ip, mac = "10.10.0.5", "02:00:00:00:00:01"

    def add_receive_listener(self, listener) -> None:
        pass


_MAX_BURSTS = (1, 2, 3, 4, 5, 17, 40)


@pytest.mark.parametrize("max_burst", _MAX_BURSTS)
def test_quic_blocks_equal_numpy_random_state(max_burst):
    # Both ends of the 32-bit range, then 72 block seeds per burst size, 506
    # distinct seeds over the seven: multiplying by an odd constant modulo
    # 2**32 is a bijection, so distinct lane/index pairs give distinct seeds.
    block = QUICWorkloadGenerator._BLOCK
    lane = _MAX_BURSTS.index(max_burst)
    walk = [(lane + 7 * index) * 2_654_435_761 % 2**32 for index in range(1, 73)]
    seeds = [0, 2**32 - 1, *walk]
    mean_gap_s = 0.8 + max_burst / 7.0
    generator = QUICWorkloadGenerator(
        Simulator(), _Endpoint(), "10.30.0.2", mean_gap_s=mean_gap_s, max_burst=max_burst
    )
    generator._rng = _BlockSeeds(seeds)
    for seed in seeds:
        reference = np.random.RandomState(seed)
        gaps = reference.exponential(mean_gap_s, block).tolist()
        bursts = reference.randint(1, max_burst + 1, block).tolist()
        migrate_draws = reference.random_sample(block).tolist()
        drawn = [generator._draw() for _ in range(block)]
        assert drawn == list(zip(gaps, bursts, migrate_draws)), seed
