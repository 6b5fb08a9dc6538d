"""Shared fixtures: the reference scenario and its heavyweight state builds.

The SPDC pair at the reference operating point (n_s=0.01, kappa=0.01,
n_b=20) takes a few hundred ms to build and decompose, so everything that
needs it shares one session-scoped copy.
"""

import math

import pytest

from qillum import (
    ScenarioParams,
    TruncationSpec,
    build_displaced_thermal,
    build_rho0,
    build_rho1,
    helstrom_single_shot,
    thermal_cutoff,
    thermal_state,
)

TAIL = 1e-9


@pytest.fixture(scope="session")
def ref_params():
    return ScenarioParams(n_s=0.01, kappa=0.01, n_b=20.0)


@pytest.fixture(scope="session")
def ref_trunc(ref_params):
    return TruncationSpec.for_params(ref_params, tail_tol=TAIL)


@pytest.fixture(scope="session")
def spdc_pair(ref_params, ref_trunc):
    return build_rho0(ref_params, ref_trunc), build_rho1(ref_params, ref_trunc)


@pytest.fixture(scope="session")
def coherent_pair(ref_params):
    """Thermal vs displaced-thermal single-mode pair on one shared cutoff."""
    cutoff = thermal_cutoff(ref_params.kappa * ref_params.n_s + ref_params.n_b, TAIL)
    rho0 = thermal_state(ref_params.n_b, cutoff)
    rho1 = build_displaced_thermal(
        math.sqrt(ref_params.kappa * ref_params.n_s), ref_params.n_b, cutoff,
        tail_tol=TAIL,
    )
    return rho0, rho1


@pytest.fixture(scope="session")
def nb_pairs(spdc_pair):
    """SPDC pairs at n_s = kappa = 0.01 for n_b in {1, 20, 100}, keyed by n_b."""
    pairs = {20.0: spdc_pair}
    for n_b in (1.0, 100.0):
        params = ScenarioParams(n_s=0.01, kappa=0.01, n_b=n_b)
        trunc = TruncationSpec.for_params(params, tail_tol=TAIL)
        pairs[n_b] = build_rho0(params, trunc), build_rho1(params, trunc)
    return pairs


@pytest.fixture(scope="session")
def padded_pair():
    """SPDC pair at (n_s, kappa, n_b) = (0.3, 0.5, 0.05), where n_i_max = 14
    exceeds n_r_max = 11 (cut at the H1 return mean 0.2): every block is
    narrower than the stack, so each one carries zero padding."""
    params = ScenarioParams(n_s=0.3, kappa=0.5, n_b=0.05)
    trunc = TruncationSpec.for_params(params, tail_tol=TAIL)
    return build_rho0(params, trunc), build_rho1(params, trunc)


@pytest.fixture(scope="session")
def ref_helstrom(spdc_pair):
    return helstrom_single_shot(*spdc_pair)
