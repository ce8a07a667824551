"""Tests for the STRL generator and RDL translation."""

import pytest

from repro.errors import StrlError
from repro.strl import (Atom, Max, NCk, SpaceOption, Window,
                        generate_batch_strl, generate_job_strl,
                        quantize_duration, rdl_to_strl)
from repro.strl.ast import Sum
from repro.valuefn import StepValue, best_effort_value, slo_value

GPU = frozenset({"M1", "M2"})
ALL = frozenset({"M1", "M2", "M3", "M4"})


class TestQuantize:
    @pytest.mark.parametrize("dur,quantum,expected", [
        (10, 10, 1), (11, 10, 2), (9.9, 10, 1), (0.1, 10, 1), (30, 10, 3),
        (20.0000001, 10, 2),  # tolerance absorbs float fuzz
    ])
    def test_rounding(self, dur, quantum, expected):
        assert quantize_duration(dur, quantum) == expected

    def test_bad_quantum(self):
        with pytest.raises(StrlError):
            quantize_duration(5, 0)


class TestGenerateJobStrl:
    def options(self):
        return [SpaceOption(GPU, k=2, duration_s=20, label="gpu"),
                SpaceOption(ALL, k=2, duration_s=30, label="any")]

    def test_paper_gpu_example_shape(self):
        """Sec. 4.4: deadline 3 quanta -> 2 GPU start options + 1 fallback."""
        vf = StepValue(value=1.0, deadline=30.0)
        expr = generate_job_strl(self.options(), vf, now=0.0, quantum_s=10,
                                 plan_ahead_quanta=4, deadline=30.0)
        assert isinstance(expr, Max)
        leaves = sorted(expr.leaves(), key=lambda l: (len(l.nodes), l.start))
        # GPU option (dur 2): starts 0 and 1 fit within deadline 3.
        gpu_leaves = [l for l in leaves if l.nodes == GPU]
        any_leaves = [l for l in leaves if l.nodes == ALL]
        assert [l.start for l in gpu_leaves] == [0, 1]
        assert [l.start for l in any_leaves] == [0]

    def test_plan_ahead_zero_only_now(self):
        vf = StepValue(value=1.0, deadline=1000.0)
        expr = generate_job_strl(self.options(), vf, now=0.0, quantum_s=10,
                                 plan_ahead_quanta=0)
        assert all(l.start == 0 for l in expr.leaves())

    def test_value_comes_from_value_function(self):
        vf = best_effort_value(release_time=0.0, decay_horizon=100.0)
        expr = generate_job_strl(self.options(), vf, now=0.0, quantum_s=10,
                                 plan_ahead_quanta=2, earliness_bias=0.0)
        by_key = {(l.nodes, l.start): l.value for l in expr.leaves()}
        # GPU completes at (start+2)*10s: value 1 - completion/100.
        assert by_key[(GPU, 0)] == pytest.approx(0.8)
        assert by_key[(GPU, 1)] == pytest.approx(0.7)
        assert by_key[(ALL, 0)] == pytest.approx(0.7)

    def test_everything_culled_returns_none(self):
        vf = StepValue(value=1.0, deadline=5.0)  # nothing completes by t=5
        expr = generate_job_strl(self.options(), vf, now=0.0, quantum_s=10,
                                 plan_ahead_quanta=4, deadline=5.0)
        assert expr is None

    def test_cull_disabled_keeps_zero_value_leaves(self):
        vf = StepValue(value=1.0, deadline=5.0)
        expr = generate_job_strl(self.options(), vf, now=0.0, quantum_s=10,
                                 plan_ahead_quanta=1, deadline=5.0, cull=False)
        assert expr is not None
        assert all(l.value == 0.0 for l in expr.leaves())

    def test_infeasible_option_skipped(self):
        opts = [SpaceOption(GPU, k=3, duration_s=10)]  # k > |GPU|
        vf = StepValue(1.0, 1000.0)
        assert generate_job_strl(opts, vf, 0.0, 10, 2) is None

    def test_single_leaf_not_wrapped(self):
        opts = [SpaceOption(GPU, k=2, duration_s=10)]
        vf = StepValue(1.0, 1000.0)
        expr = generate_job_strl(opts, vf, 0.0, 10, 0)
        assert isinstance(expr, NCk)

    def test_negative_plan_ahead_rejected(self):
        with pytest.raises(StrlError):
            generate_job_strl(self.options(), StepValue(1.0, 10.0), 0.0, 10, -1)

    def test_malformed_leaves_still_raise(self):
        """Leaves are validated once per option, then their values inline:
        every malformed input raises as when each leaf checked itself."""
        with pytest.raises(StrlError, match="frozenset"):
            generate_job_strl([SpaceOption(set(ALL), 2, 20)],
                              StepValue(1.0, 1000.0), 0.0, 10, 2)
        with pytest.raises(StrlError, match="nonnegative"):
            generate_job_strl(self.options(), lambda t: -1.0, 0.0, 10, 2,
                              cull=False)
        # A later start of an option whose first leaf passed.
        with pytest.raises(StrlError, match="nonnegative"):
            generate_job_strl(self.options(),
                              lambda t: 1.0 if t < 25.0 else -1.0, 0.0, 10, 2,
                              cull=False)

    def test_now_offset_shifts_completion(self):
        vf = StepValue(value=1.0, deadline=115.0)
        expr = generate_job_strl([SpaceOption(ALL, 2, 20)], vf, now=100.0,
                                 quantum_s=10, plan_ahead_quanta=4,
                                 deadline=115.0)
        assert expr is None  # earliest completion is 120 > 115


class TestBatch:
    def test_batch_aggregates_with_sum(self):
        a = NCk(ALL, 1, 0, 1, 1.0)
        b = NCk(GPU, 1, 0, 1, 2.0)
        e = generate_batch_strl([a, b])
        assert isinstance(e, Sum)
        assert e.max_value() == 3.0

    def test_empty_batch(self):
        assert generate_batch_strl([]) is None


class TestRdl:
    def test_atom_requires_full_gang(self):
        with pytest.raises(StrlError):
            Atom("<16GB,8c>", k=2, gang=1, duration_s=30)

    def test_window_validation(self):
        with pytest.raises(StrlError):
            Window(10, 10, Atom("b", 1, 1, 5))

    def test_paper_window_example(self):
        """Window(s=0,f=3,Atom(k=2,gang=2,dur=3)) at quantum 1: one start."""
        w = Window(0, 3, Atom("<16GB,8c>", k=2, gang=2, duration_s=3))
        e = rdl_to_strl(w, ALL, quantum_s=1)
        assert isinstance(e, NCk)
        assert (e.k, e.start, e.duration) == (2, 0, 3)

    def test_wider_window_multiple_starts(self):
        w = Window(0, 50, Atom("b", k=2, gang=2, duration_s=20))
        e = rdl_to_strl(w, ALL, quantum_s=10)
        assert isinstance(e, Max)
        assert [l.start for l in e.leaves()] == [0, 1, 2, 3]

    def test_infeasible_window_returns_none(self):
        w = Window(0, 10, Atom("b", k=2, gang=2, duration_s=20))
        assert rdl_to_strl(w, ALL, quantum_s=10) is None

    def test_too_small_cluster_returns_none(self):
        w = Window(0, 100, Atom("b", k=9, gang=9, duration_s=10))
        assert rdl_to_strl(w, ALL, quantum_s=10) is None

    def test_window_start_offset(self):
        w = Window(20, 60, Atom("b", k=1, gang=1, duration_s=20))
        e = rdl_to_strl(w, ALL, quantum_s=10, now=0.0)
        starts = [l.start for l in e.leaves()]
        assert starts == [2, 3, 4]  # may not start before window opens

    def test_feasible_property(self):
        assert Window(0, 30, Atom("b", 1, 1, 30)).feasible
        assert not Window(0, 29, Atom("b", 1, 1, 30)).feasible
