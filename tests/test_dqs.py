import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsense.core
import qsense.dqs
from qsense.core import (
    DENSE_DIMENSION_CAP,
    PROBE_SUPPORT_CAP,
    ValidationError,
)
from qsense.bounds import qfim, qfim_pure
from qsense.dqs import (
    ProbeSpec,
    build_probe,
    closed_form_sensitivity,
    gain,
    global_sensor_network,
    local_network_from_total,
    local_sensor_network,
    nu_average,
    phase_generators,
    probe_to_json,
    verify_probe,
)
from probe_oracle import dense_model, dict_generators, dict_probe, dict_qfim, dict_to_json


def spec(family, d, n, signs=None):
    if family == "GENERALIZED_NOON":
        return ProbeSpec(family, global_sensor_network(d, n))
    return ProbeSpec(family, local_sensor_network(d, n), signs)


def amplitude_map(state):
    return dict(zip(map(tuple, state.occupations.tolist()), state.amplitudes.tolist()))


class TestBuildProbe:
    def test_all_to_nothing_two_sensors_single_particle(self):
        state = build_probe(spec("MEPE", 2, 1))
        amps = amplitude_map(state)
        assert set(amps) == {(1, 0, 1, 0), (0, 1, 0, 1)}
        for a in amps.values():
            assert abs(a - 1 / math.sqrt(2)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_global_probe_normalisation_identity(self, d):
        assert abs(1 / (1 + math.sqrt(d)) + d / (d + math.sqrt(d)) - 1.0) < 1e-14
        state = build_probe(spec("GENERALIZED_NOON", d, 3))
        assert abs(state.weights.sum() - 1.0) < 1e-12
        assert len(state.amplitudes) == d + 1

    def test_product_noon_expansion(self):
        state = build_probe(spec("MSPE", 3, 2))
        amps = amplitude_map(state)
        assert len(amps) == 8
        for a in amps.values():
            assert abs(a - 1 / math.sqrt(8)) < 1e-15

    def test_every_family_is_normalised_on_its_sector(self):
        for family in ["MSPS", "MSPE", "MEPS", "MEPE"]:
            state = build_probe(spec(family, 2, 2))
            assert abs(state.weights.sum() - 1.0) < 1e-12
            assert (state.occupations.sum(axis=1) == 4).all()
        state = build_probe(spec("GENERALIZED_NOON", 3, 4))
        assert (state.occupations.sum(axis=1) == 4).all()

    def test_family_reference_compatibility(self):
        with pytest.raises(ValidationError):
            ProbeSpec("GENERALIZED_NOON", local_sensor_network(2, 1))
        with pytest.raises(ValidationError):
            ProbeSpec("MEPE", global_sensor_network(2, 2))

    def test_signs_only_for_all_to_nothing_family(self):
        with pytest.raises(ValidationError):
            ProbeSpec("MSPE", local_sensor_network(2, 1), (1, -1))

    def test_equal_split_rejected(self):
        with pytest.raises(ValidationError, match="split"):
            local_network_from_total(2, 3)
        assert local_network_from_total(2, 6).particles == 3

    def test_json_roundtrip(self):
        probe = build_probe(spec("MEPE", 2, 2))
        payload = probe_to_json(probe)
        assert payload["2,0,2,0"] == [1 / math.sqrt(2), 0.0]


ORACLE_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestAgainstTheDictOracle:
    """The array builders and QFIM against the per-amplitude dict construction, bit for bit."""

    @ORACLE_SETTINGS
    @given(data=st.data(), family=st.sampled_from(qsense.dqs.FAMILIES),
           d=st.integers(1, 4), n=st.integers(1, 4))
    def test_probe_and_qfim_are_identical(self, data, family, d, n):
        signs = None
        if family == "MEPE" and data.draw(st.booleans()):
            signs = tuple(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d)))
        probe_spec = spec(family, d, n, signs)
        state = build_probe(probe_spec)
        amps = dict_probe(probe_spec)
        assert probe_to_json(state) == dict_to_json(amps)
        fisher = qfim_pure(state, phase_generators(probe_spec.network))
        oracle = dict_qfim(amps, dict_generators(probe_spec.network))
        assert fisher.matrix.tobytes() == oracle.tobytes()


class TestParticleCountFitsFloats:
    @pytest.mark.parametrize("modes", [2, 3, 4, 8])
    def test_refusal_is_where_the_largest_weight_overflows(self, modes):
        def converts(n):
            q, r = divmod(n, modes)
            weight = math.factorial(n) // (math.factorial(q + 1) ** r * math.factorial(q) ** (modes - r))
            try:
                float(weight)
            except OverflowError:
                return False
            return True

        edge = next(n for n in range(1, 4000) if not converts(n))
        for n in range(edge - 40, edge + 40):
            assert qsense.dqs._largest_weight_is_a_float(n, modes) == converts(n)

    @pytest.mark.parametrize("family,d,n", [
        ("MSPS", 1, 1030), ("MSPS", 1, 2046), ("MSPS", 1, 999_999), ("MEPS", 1, 1030),
        ("MEPS", 1, 3000),
    ])
    def test_overflowing_probe_refused_by_its_spec(self, family, d, n):
        with pytest.raises(ValidationError, match=f"of {n} particles"):
            spec(family, d, n)

    @pytest.mark.parametrize("family", ["MSPS", "MEPS"])
    def test_largest_representable_probe_is_built(self, family):
        state = build_probe(spec(family, 1, 1029))
        assert len(state.amplitudes) == 1030
        assert abs(state.weights.sum() - 1.0) < 1e-12


class TestSupportSize:
    @pytest.mark.parametrize("family", ["MSPS", "MSPE", "MEPS", "MEPE", "GENERALIZED_NOON"])
    @pytest.mark.parametrize("d,n", [(1, 1), (2, 2), (3, 1), (2, 3)])
    def test_estimate_counts_the_built_amplitudes(self, family, d, n):
        probe_spec = spec(family, d, n)
        assert probe_spec.support_size == len(build_probe(probe_spec).amplitudes)

    @pytest.mark.parametrize("family,d,n", [("MSPS", 8, 8), ("MEPS", 8, 8), ("MEPS", 5, 4)])
    def test_oversized_probe_rejected_by_its_spec(self, family, d, n):
        with pytest.raises(ValidationError, match="probe support cap"):
            spec(family, d, n)

    def test_cap_admits_the_whole_d4_n4_meps_sector(self):
        assert spec("MEPS", 4, 4).support_size == math.comb(23, 7) <= PROBE_SUPPORT_CAP

    def test_sensor_count_capped_by_the_dense_information_matrix(self):
        for sensors in (0, DENSE_DIMENSION_CAP + 1):
            with pytest.raises(ValidationError, match="sensor count"):
                spec("MEPE", sensors, 1)


class TestClosedForms:
    def test_shot_noise_limit(self):
        assert abs(closed_form_sensitivity(spec("MSPS", 2, 2), nu_average(2)) - 0.25) < 1e-15

    def test_heisenberg_limit_all_to_nothing(self):
        value = closed_form_sensitivity(spec("MEPE", 2, 2), nu_average(2))
        assert abs(value - 1.0 / 16.0) < 1e-15

    def test_global_reference_trace_figure(self):
        value = closed_form_sensitivity(spec("GENERALIZED_NOON", 2, 2), None)
        assert abs(value - 2 * (math.sqrt(2) + 1) ** 2 / 16.0) < 1e-12

    def test_repetitions_divide_through(self):
        assert abs(
            closed_form_sensitivity(spec("MSPE", 2, 3), nu_average(2), m=10)
            - 2.0 / (10 * 36.0)
        ) < 1e-15

    def test_sign_pattern_direction(self):
        pattern = spec("MEPE", 2, 2, signs=(1, -1))
        value = closed_form_sensitivity(pattern, np.array([0.5, -0.5]))
        assert abs(value - 1.0 / 16.0) < 1e-15
        with pytest.raises(ValidationError):
            closed_form_sensitivity(pattern, nu_average(2))

    def test_unsupported_direction_rejected(self):
        with pytest.raises(ValidationError, match="closed form"):
            closed_form_sensitivity(spec("MEPE", 2, 2), np.array([1.0, 0.0]))


class TestGain:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_average_direction_reaches_sensor_count(self, d):
        assert abs(gain(nu_average(d)) - d) <= 1e-12

    def test_single_parameter_direction(self):
        assert abs(gain([1.0, 0.0, 0.0]) - 1.0) <= 1e-12

    def test_difference_direction(self):
        assert abs(gain([0.5, -0.5]) - 2.0) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            nu = rng.normal(size=4)
            for c in [0.1, -3.0, 17.0]:
                assert abs(gain(c * nu) - gain(nu)) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            gain([0.0, 0.0])

    @pytest.mark.parametrize("nu", [[float("inf"), 0.5], [float("nan"), 0.5]])
    def test_non_finite_vector_rejected(self, nu):
        with pytest.raises(ValidationError, match="finite and nonzero"):
            gain(nu)


class TestVerifyProbe:
    def test_all_to_nothing_matches_closed_form(self):
        check = verify_probe(spec("MEPE", 2, 2), nu_average(2))
        assert not check.inestimable
        assert check.relative_deviation <= 1e-9

    def test_single_phase_is_inestimable_for_rank_one_probe(self):
        check = verify_probe(spec("MEPE", 2, 2), np.array([1.0, 0.0]))
        assert check.inestimable
        assert check.qfim.rank == 1

    def test_global_reference_trace(self):
        check = verify_probe(spec("GENERALIZED_NOON", 3, 3), None)
        assert check.relative_deviation <= 1e-9

    def test_sign_pattern_probe(self):
        check = verify_probe(spec("MEPE", 2, 2, signs=(1, -1)), np.array([0.5, -0.5]))
        assert check.relative_deviation <= 1e-9
        flipped = verify_probe(spec("MEPE", 2, 2, signs=(1, -1)), nu_average(2))
        assert flipped.inestimable

    @pytest.mark.parametrize("family", ["MSPS", "MSPE", "MEPS"])
    def test_shot_noise_families(self, family):
        check = verify_probe(spec(family, 2, 2), nu_average(2))
        assert check.relative_deviation <= 1e-9


class TestLargeNetworks:
    """Probes whose full Fock sector once had to be listed before any amplitude."""

    @pytest.mark.parametrize("family,d,n", [("MEPE", 6, 4), ("MEPE", 8, 8), ("MSPE", 8, 8)])
    def test_matches_closed_form(self, family, d, n):
        check = verify_probe(spec(family, d, n), nu_average(d))
        assert not check.inestimable
        assert check.relative_deviation <= 1e-9

    @pytest.mark.parametrize("family,d,n", [
        ("MEPE", 8, 8), ("MSPE", 8, 8), ("MSPS", 4, 4), ("GENERALIZED_NOON", 8, 8),
    ])
    def test_sparse_families_never_enumerate_a_sector(self, family, d, n, monkeypatch):
        def no_enumeration(modes, total):
            raise AssertionError(f"enumerated the ({modes}, {total}) sector")

        monkeypatch.setattr(qsense.core, "fock_sector", no_enumeration)
        monkeypatch.setattr(qsense.dqs, "fock_sector", no_enumeration)
        nu = None if family == "GENERALIZED_NOON" else nu_average(d)
        assert verify_probe(spec(family, d, n), nu).relative_deviation <= 1e-9

    def test_large_product_probe_stays_small(self):
        # 823,543 amplitudes over 14 modes, the largest MSPS probe under the support cap
        probe_spec = spec("MSPS", 7, 6)
        tracemalloc.start()
        try:
            fisher = qfim_pure(build_probe(probe_spec), phase_generators(probe_spec.network))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250e6
        assert np.abs(fisher.matrix - 6.0 * np.eye(7)).max() < 1e-9

    def test_meps_enumerates_its_sector(self, monkeypatch):
        def no_enumeration(modes, total):
            raise AssertionError("enumerated")

        monkeypatch.setattr(qsense.dqs, "fock_sector", no_enumeration)
        with pytest.raises(AssertionError, match="enumerated"):
            build_probe(spec("MEPS", 2, 1))


class TestStructuralProperties:
    @pytest.mark.parametrize("family", ["MSPS", "MSPE"])
    def test_mode_separable_probes_have_diagonal_information(self, family):
        for d, n in [(2, 2), (3, 2)]:
            probe = build_probe(spec(family, d, n))
            f = qfim_pure(probe, phase_generators(local_sensor_network(d, n)))
            off = f.matrix - np.diag(np.diag(f.matrix))
            assert np.abs(off).max() <= 1e-10

    @pytest.mark.parametrize(
        "family,d,n",
        [("MSPS", 2, 2), ("MSPE", 2, 2), ("MEPE", 2, 2), ("MEPS", 2, 1), ("MEPE", 3, 1)],
    )
    def test_commuting_generators_leave_no_curvature(self, family, d, n):
        probe = build_probe(spec(family, d, n))
        res = qfim(dense_model(probe, phase_generators(local_sensor_network(d, n))), np.zeros(d))
        assert np.abs(res.g_q).max() <= 1e-10
        assert res.r_measure <= 1e-8

    def test_hierarchy_at_fixed_particle_budget(self):
        d, n = 3, 2
        n_t = d * n
        msps = closed_form_sensitivity(spec("MSPS", d, n), nu_average(d))
        mspe = closed_form_sensitivity(spec("MSPE", d, n), nu_average(d))
        mepe = closed_form_sensitivity(spec("MEPE", d, n), nu_average(d))
        assert mepe <= mspe <= msps
        assert abs(mspe / mepe - d) < 1e-9
        assert abs(msps / mspe - n_t / d) < 1e-9

    def test_qfim_values_match_hand_formulas(self):
        d, n = 2, 3
        probe = build_probe(spec("MSPE", d, n))
        f = qfim_pure(probe, phase_generators(local_sensor_network(d, n)))
        assert np.abs(f.matrix - np.diag([n**2, n**2])).max() < 1e-12
        probe = build_probe(spec("MSPS", d, n))
        f = qfim_pure(probe, phase_generators(local_sensor_network(d, n)))
        assert np.abs(f.matrix - np.diag([n, n])).max() < 1e-12
