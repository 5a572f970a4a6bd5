import contextlib
import itertools
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import pytest

from domgame import harness
from domgame.canon import canonical_key
from domgame.families import FamilySpec, generate, path_graph
from domgame.graph import PartiallyDominatedGraph, add_edges, non_edges
from domgame.solver import (MemoLimitExceeded, Solver, SolverConfig,
                            VertexCapExceeded)


class TestSolveAll:
    @pytest.mark.parametrize("sweep", [
        # Hatted cycles of order 5..13: the first seven fit under the cap.
        lambda cfg: harness.sweep_family(harness.hatted_cycle_specs(4, 12),
                                         config=cfg),
        # R-graphs of order 11, 15, ..., 27: only the first fits.
        lambda cfg: harness.sweep_family(harness.r_graph_specs(range(2, 7)),
                                         config=cfg),
        lambda cfg: harness.enumerate_edge_additions("path", 12, 2,
                                                     config=cfg),
    ], ids=["sweep_family", "sweep_family_r_graph", "enumerate_edge_additions"])
    def test_cap_checked_before_first_solve(self, sweep, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_sweep_one", calls.append)
        with pytest.raises(VertexCapExceeded):
            sweep(SolverConfig(vertex_cap=11))
        assert calls == []

    @pytest.fixture
    def generated(self, monkeypatch):
        calls = []

        def counting_generate(spec):
            calls.append(spec)
            return generate(spec)

        monkeypatch.setattr(harness, "generate", counting_generate)
        return calls

    def test_sweep_family_generates_each_spec_once(self, generated):
        specs = harness.hatted_cycle_specs(4, 9)
        harness.sweep_family(specs)
        assert generated == specs

    def test_sweep_family_stops_generating_over_cap(self, generated):
        # Hatted cycles of order 5..13: the eighth, of order 12, is the
        # first over the cap; its order is checked before it is generated.
        specs = harness.hatted_cycle_specs(4, 12)
        with pytest.raises(VertexCapExceeded, match="graph order 12 exceeds"):
            harness.sweep_family(specs, config=SolverConfig(vertex_cap=11))
        assert generated == specs[:7]


class TestDedup:
    """Each isomorphism class of a batch is solved once; the others copy
    its value and add no states."""

    @pytest.fixture
    def solved(self, monkeypatch):
        jobs = []
        solve = harness._sweep_one

        def recording(job):
            jobs.append(job)
            return solve(job)

        monkeypatch.setattr(harness, "_sweep_one", recording)
        return jobs

    def test_p9_plus_3_one_solve_per_class(self, solved):
        r = harness.enumerate_edge_additions("path", 9, 3)
        assert r.parameters["graph_count"] == 3276
        assert len(solved) == r.solver_stats["instances_solved"] == 706
        assert len({canonical_key(p.graph, p.dominated)
                    for p, _ in solved}) == 706

    def test_two_tailed_one_solve_per_class(self, solved):
        # (m, n, k) and (m, k, n) are the same graph.
        specs = harness.two_tailed_specs(13)
        r = harness.sweep_family(specs)
        assert len(specs) == len(r.rows) == 165
        assert len(solved) == r.solver_stats["instances_solved"] == 95

    @pytest.mark.parametrize("instances", [
        lambda: [generate(s) for s in harness.two_tailed_specs(13)],
        # Every labeled edge set: each class appears many times.
        lambda: [PartiallyDominatedGraph(add_edges(path_graph(7), combo))
                 for combo in itertools.combinations(non_edges(path_graph(7)), 3)],
        # P_5 with one vertex dominated: the reversal pairs up the ends
        # and the inner vertices, so five instances fall into three classes.
        lambda: [PartiallyDominatedGraph(path_graph(5), 1 << v) for v in range(5)],
    ], ids=["two-tailed-13", "path-7-all-3-edge-sets", "p5-one-dominated"])
    def test_values_match_direct_solves(self, instances):
        instances = instances()
        values, stats = harness._solve_all(instances, SolverConfig(), 1)
        # States of the direct solve of each class's first instance.
        first_states = {}
        for pdg, value in zip(instances, values):
            solver = Solver(pdg.graph)
            assert value == solver.game_value(pdg.dominated)
            first_states.setdefault(canonical_key(pdg.graph, pdg.dominated),
                                    solver.states_explored)
        assert len(first_states) < len(instances)
        assert stats == {"instances_solved": len(first_states),
                         "states_explored": sum(first_states.values())}

    def test_no_symmetry_solves_every_labeled_edge_set(self, solved):
        r = harness.enumerate_edge_additions("path", 9, 3, symmetry=False)
        assert len(solved) == r.solver_stats["instances_solved"] == 3276
        assert len({p.graph for p, _ in solved}) == 3276


def _without_run_details(report):
    doc = json.loads(report.to_json())
    del doc["wall_time"], doc["solver_stats"], doc["parameters"]["symmetry"]
    return doc


class TestEnumerateEdgeAdditions:
    def test_p11_one_edge(self):
        r = harness.enumerate_edge_additions("path", 11, 1)
        assert r.max_value == 5
        assert r.parameters["graph_count"] == 45
        assert r.ok

    def test_cycle_bound(self):
        r = harness.enumerate_edge_additions("cycle", 8, 2)
        assert r.max_value <= 4
        assert r.ok

    def test_symmetry_on_off_identical(self):
        on = harness.enumerate_edge_additions("path", 9, 2, symmetry=True)
        off = harness.enumerate_edge_additions("path", 9, 2, symmetry=False)
        assert _without_run_details(on) == _without_run_details(off)

    def test_cycle_symmetry_on_off_identical(self):
        on = harness.enumerate_edge_additions("cycle", 9, 2, symmetry=True)
        off = harness.enumerate_edge_additions("cycle", 9, 2, symmetry=False)
        assert _without_run_details(on) == _without_run_details(off)

    def test_witnesses_resolve_to_reported_value(self):
        r = harness.enumerate_edge_additions("path", 10, 2)
        for witness in r.witnesses[:10]:
            g = add_edges(path_graph(10), [tuple(e) for e in witness])
            assert Solver(g).game_value() == r.max_value

    def test_workers_match_serial(self):
        serial = harness.enumerate_edge_additions("path", 9, 2, workers=1)
        parallel = harness.enumerate_edge_additions("path", 9, 2, workers=2)
        assert serial.rows == parallel.rows
        assert serial.witnesses == parallel.witnesses

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            harness.enumerate_edge_additions("tree", 8, 2)

    def test_unknown_base_refused_before_any_work(self, monkeypatch):
        calls = []
        for name in harness.EDGE_BASES:
            monkeypatch.setitem(harness.EDGE_BASES, name,
                                lambda n, name=name: calls.append(name))
        monkeypatch.setattr(harness, "add_edges", lambda *a: calls.append("add_edges"))
        monkeypatch.setattr(harness, "_solve_all", lambda *a: calls.append("solve"))
        with pytest.raises(ValueError) as exc:
            harness.enumerate_edge_additions("star", 6, 1)
        assert str(exc.value) == "base must be 'path' or 'cycle', got 'star'"
        assert calls == []

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError):
            harness.enumerate_edge_additions("path", 30, 2)


def _over_half(instances, cfg, workers, key=None):
    """A `_solve_all` whose every value is one above the half-order bound."""
    return [-(-pdg.graph.n // 2) + 1 for pdg in instances], {}


class TestAlarms:
    """Each failed check writes its note, and a report with a note is not ok."""

    def test_edge_sweep_over_bound(self, monkeypatch):
        monkeypatch.setattr(harness, "_solve_all", _over_half)
        r = harness.enumerate_edge_additions("path", 9, 2)
        assert r.notes == ["bound 5 exceeded by 378 edge sets"]
        assert r.ok is False
        assert r.rows == [{"n": 9, "gamma_g": 6, "count": 378}]

    def test_solver_above_published_bound(self, monkeypatch):
        monkeypatch.setattr(harness, "_solve_all", _over_half)
        r = harness.sweep_family(harness.r_graph_specs([2]))
        assert r.notes == ["r-graph(n=2): solver 7 exceeds published bound 6",
                           "half-order bound violated; see rows"]
        assert r.ok is False

    def test_exceptional_residues_differ(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "two_tailed_failing_residues",
                            lambda: [(0, 0, 0)])
        r = harness.verify_tables()
        assert r.notes == ["exceptional residue set differs from published one"]
        assert r.ok is False
        assert r.parameters["exception_count"] == 1

    @pytest.mark.parametrize("target, fake, notes", [
        ("oracle.union_lemma_bound", lambda pieces: -1,
         ["union-bound: 3 failures"]),
        ("domination_number", lambda g, cfg: 0,
         ["gamma-sandwich: 3 failures"]),
        ("_minimax", lambda g, s, dom, memo: -1,
         ["search-soundness: 3 failures"]),
    ], ids=["union-bound", "gamma-sandwich", "search-soundness"])
    def test_property_failures(self, target, fake, notes, monkeypatch):
        monkeypatch.setattr(f"domgame.harness.{target}", fake)
        r = harness.property_suite(seed=0, trials=3)
        assert r.notes == notes
        assert r.ok is False

    def test_continuation_principle_failures(self, monkeypatch):
        # Each game_value call reads one less than the call before, so the
        # larger dominated set, asked first, always plays longer.  The
        # negative values also fail the sandwich and soundness checks.
        calls = itertools.count()

        class Countdown:
            def __init__(self, graph, config=None):
                pass

            def game_value(self, dominated=0, turn=None):
                return -next(calls)

        monkeypatch.setattr(harness, "Solver", Countdown)
        r = harness.property_suite(seed=0, trials=3)
        assert r.notes == ["continuation-principle: 6 failures",
                           "gamma-sandwich: 3 failures",
                           "search-soundness: 3 failures"]
        assert r.ok is False


class TestSweepFamily:
    def test_deterministic_reports(self):
        specs = harness.tadpole_specs(10)
        a = harness.sweep_family(specs, name="x")
        b = harness.sweep_family(specs, name="x")
        ja, jb = json.loads(a.to_json()), json.loads(b.to_json())
        ja.pop("wall_time"), jb.pop("wall_time")
        assert ja == jb

    def test_oracle_disagreement_flagged(self):
        # sanity: agreement on hatted cycles is recorded as ok
        r = harness.sweep_family(harness.hatted_cycle_specs(4, 9))
        assert r.ok and not r.notes

    @pytest.mark.parametrize("specs", [
        harness.hatted_cycle_specs(4, 12),
        harness.cycle_chord_specs(11),
    ], ids=["hatted-cycle", "cycle-chord"])
    def test_rows_follow_spec_order(self, specs):
        # Not sorted as text, which put hatted-cycle(n=10) before (n=4).
        r = harness.sweep_family(specs)
        assert [row["params"] for row in r.rows] == [s.describe() for s in specs]

    def test_workers_match_serial(self):
        specs = harness.tadpole_specs(9)
        serial = harness.sweep_family(specs, workers=1)
        parallel = harness.sweep_family(specs, workers=2)
        assert serial.rows == parallel.rows

    def test_csv_schema(self):
        r = harness.sweep_family(harness.broken_ladder_specs(1))
        lines = r.to_csv().strip().splitlines()
        assert lines[0] == "family,params,n,gamma_g,bound,holds,is_half_graph"
        assert len(lines) == 3

    def test_random_fx_w_is_a_vertex_list(self):
        # The draws of seed 0; w was once stored as the mask of these lists.
        specs = harness.random_fx_specs(5, 0, 18)
        assert [(s.params["n"], s.params["x"].n, s.params["w"]) for s in specs] \
            == [(9, 5, [0, 2, 3, 4]), (12, 2, [0]), (12, 6, [0, 1, 3]),
                (4, 2, [1]), (3, 7, [0, 1, 2, 3, 4, 6])]

    def test_random_fx_seeded_reproducible(self):
        a = harness.random_fx_specs(5, 42, 16)
        b = harness.random_fx_specs(5, 42, 16)
        assert [(s.params["x"], s.params["n"], s.params["w"]) for s in a] == \
            [(s.params["x"], s.params["n"], s.params["w"]) for s in b]


class _Exit:
    def __reduce__(self):
        return os._exit, (1,)


def _exit_once(marker):
    """0 once `marker` exists; before that, create it and exit on the spot."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return 0


class _ExitOnce:
    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return _exit_once, (self.marker,)


def _sleep_then_zero(seconds):
    time.sleep(seconds)
    return 0


class _Sleep:
    def __init__(self, seconds):
        self.seconds = seconds

    def __reduce__(self):
        return _sleep_then_zero, (self.seconds,)


class TestPool:
    """Pooled batches share the process's one pool, and a pool with a dead
    worker is replaced, not reused."""

    SPECS = harness.tadpole_specs(9)

    @staticmethod
    def worker_pids():
        return sorted(p.pid for p in multiprocessing.active_children())

    def test_batches_share_workers(self):
        serial = harness.sweep_family(self.SPECS, workers=1)
        first = harness.sweep_family(self.SPECS, workers=2)
        pids = self.worker_pids()
        second = harness.sweep_family(self.SPECS, workers=2)
        assert len(pids) == 2
        assert self.worker_pids() == pids
        assert first.rows == second.rows == serial.rows

    def test_other_size_replaces_pool(self):
        harness.sweep_family(self.SPECS, workers=3)
        three = self.worker_pids()
        harness.sweep_family(self.SPECS, workers=2)
        two = self.worker_pids()
        assert (len(three), len(two)) == (3, 2)
        assert not set(three) & set(two)

    def test_dead_idle_worker_replaced(self):
        serial = harness.sweep_family(self.SPECS, workers=1)
        harness.sweep_family(self.SPECS, workers=2)
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        # join reaps the victim, unless the pool's own thread reaps it
        # first, so its exit code may read None; its sentinel shows it died.
        victim.join(timeout=10)
        assert multiprocessing.connection.wait([victim.sentinel], timeout=0)
        assert harness.sweep_family(self.SPECS, workers=2).rows == serial.rows
        assert victim.pid not in self.worker_pids()

    def test_worker_dying_in_batch_raises(self):
        # The worker that unpickles this job exits on the spot.
        job = SimpleNamespace(graph=SimpleNamespace(n=1), dominated=_Exit())
        serial = harness.sweep_family(self.SPECS, workers=1)
        with pytest.raises(BrokenProcessPool):
            harness._solve_all([job], SolverConfig(), 2, key=lambda g, d: 0)
        assert harness.sweep_family(self.SPECS, workers=2).rows == serial.rows

    @staticmethod
    def exit_once_job(tmp_path):
        # The first worker to unpickle this job exits; later ones solve P_7.
        dominated = _ExitOnce(str(tmp_path / "exited"))
        return SimpleNamespace(graph=path_graph(7), dominated=dominated)

    def test_kept_pool_broken_in_batch_reruns_it(self, tmp_path):
        harness.sweep_family(self.SPECS, workers=2)
        values, _ = harness._solve_all([self.exit_once_job(tmp_path)],
                                       SolverConfig(), 2, key=lambda g, d: 0)
        assert values == [3]  # gamma_g(P_7)

    def test_fresh_pool_broken_in_batch_raises(self, tmp_path):
        harness.sweep_family(self.SPECS, workers=2)
        harness._drop_pool()
        with pytest.raises(BrokenProcessPool):
            harness._solve_all([self.exit_once_job(tmp_path)],
                               SolverConfig(), 2, key=lambda g, d: 0)

    def test_worker_killed_right_before_batch(self):
        # No join and no pause: the next batch may find the pool whole,
        # broken, or breaking under it.  A batch can also finish on the live
        # worker before the pool sees the dead one; the pool then breaks and
        # ends its workers, so there may be no worker left to kill.
        serial = harness.sweep_family(self.SPECS, workers=1)
        harness.sweep_family(self.SPECS, workers=2)
        for _ in range(20):
            with contextlib.suppress(IndexError, ProcessLookupError):
                os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
            assert harness.sweep_family(self.SPECS, workers=2).rows == serial.rows

    def test_failed_batch_leaves_no_workers(self):
        harness.sweep_family(self.SPECS, workers=2)
        with pytest.raises(MemoLimitExceeded):
            harness.sweep_family(self.SPECS, workers=2,
                                 config=SolverConfig(memo_limit=5))
        assert self.worker_pids() == []

    def test_failed_batch_stops_running_jobs(self):
        # The first job exceeds the memo limit at once, while the other
        # worker sleeps 6 s on unpickling the second.
        jobs = [SimpleNamespace(graph=path_graph(12), dominated=0),
                SimpleNamespace(graph=path_graph(12), dominated=_Sleep(6))]
        start = time.monotonic()
        with pytest.raises(MemoLimitExceeded):
            harness._solve_all(jobs, SolverConfig(memo_limit=5), 2,
                               key=lambda g, d: d)
        assert time.monotonic() - start < 3
        assert self.worker_pids() == []


class TestCheckREquality:
    """R-graph equality evidence is the r-graph family sweep: its bound
    is 2n+2 for the R-graph of parameter n, and is_half_graph says
    whether that bound is attained."""

    def test_n2(self):
        r = harness.sweep_family(harness.r_graph_specs([2]))
        assert r.rows == [{"family": "r-graph", "params": "r-graph(n=2)",
                           "n": 11, "gamma_g": 6, "bound": 6, "holds": True,
                           "is_half_graph": True}]
        assert r.ok

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            harness.sweep_family(harness.r_graph_specs(range(2, 7)),
                                 config=SolverConfig(vertex_cap=20))


class TestVerifyTables:
    def test_tables_regenerate(self):
        r = harness.verify_tables()
        assert r.ok
        assert r.parameters == {"tadpole_rows": 16, "two_tailed_rows": 64,
                                "exception_count": 16}
        # 16 + 64 table rows plus the exception summary row
        assert len(r.rows) == 81

    def test_wrong_tadpole_row_reported(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "tadpole_table_row",
                            lambda x, y: (9, 9, 9))
        r = harness.verify_tables()
        assert not r.ok
        assert r.notes[0] == "tadpole row (0,0): (9, 9, 9) != (1, 4, 2)"
        assert len(r.notes) == 16
        assert r.rows[0] == {"table": "tadpole", "case": [0, 0],
                             "computed": [9, 9, 9], "expected": [1, 4, 2]}

    def test_json_document_shape(self):
        doc = json.loads(harness.verify_tables().to_json())
        assert doc["ok"] is True
        assert isinstance(doc["rows"], list)


class TestPropertySuite:
    def test_small_run_clean(self):
        r = harness.property_suite(seed=11, trials=25)
        assert r.ok
        names = [row["property"] for row in r.rows]
        assert names == ["continuation-principle", "union-bound",
                         "gamma-sandwich", "search-soundness"]

    def test_seeded_reproducible(self):
        a = harness.property_suite(seed=3, trials=10)
        b = harness.property_suite(seed=3, trials=10)
        assert a.rows == b.rows

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            harness.property_suite(seed=0, trials=0)
