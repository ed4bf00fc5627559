"""Spans around the calls into each ckoc module, kept in memory.

Tracer.install() rebinds each traced name where its caller looks it up
(for example tree_solver.lowest_feasible_vertex, the name the tree solver
calls, not arrangement_search's own), so the program itself is unchanged
and nothing is recorded while the tracer is not installed.  A span is
[name, start, end, parent index, solve id]; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from ckoc import (
    arrangement_search,
    cli,
    general_feasibility,
    graph_core,
    klevel_geometry,
    tree_solver,
)

# (module, attribute path, span name): a function that several modules
# import appears once per importing module
_WRAPPED = [
    (graph_core, "parse_instance", "graph_core.parse_instance"),
    (arrangement_search, "all_pairs_distances", "graph_core.all_pairs_distances"),
    (klevel_geometry, "all_pairs_distances", "graph_core.all_pairs_distances"),
    (general_feasibility, "edge_profile", "graph_core.edge_profile"),
    (arrangement_search, "edge_profile", "graph_core.edge_profile"),
    (general_feasibility, "FeasibilityTester.feasible", "general_feasibility.feasible"),
    (general_feasibility, "FeasibilityTester.profile", "general_feasibility.profile"),
    (general_feasibility, "covered_subtree", "general_feasibility.covered_subtree"),
    (klevel_geometry, "covered_subtree", "general_feasibility.covered_subtree"),
    (arrangement_search, "trim_witness", "general_feasibility.trim_witness"),
    (klevel_geometry, "trim_witness", "general_feasibility.trim_witness"),
    (cli, "solve_weighted_graph", "arrangement_search.solve_weighted_graph"),
    (arrangement_search, "candidate_lines", "arrangement_search.candidate_lines"),
    (arrangement_search, "_search_explicit", "arrangement_search.explicit"),
    (arrangement_search, "_CountingSearch.run", "arrangement_search.counting"),
    (cli, "solve_unweighted_graph", "klevel_geometry.solve_unweighted_graph"),
    (klevel_geometry, "build_chains", "klevel_geometry.build_chains"),
    (klevel_geometry, "kth_level", "klevel_geometry.kth_level"),
    (tree_solver, "spine_decompose", "tree_engine.spine_decompose"),
    (tree_solver, "build_coverage_arrays", "tree_engine.build_coverage_arrays"),
    (tree_solver, "query_count", "tree_engine.query_count"),
    (cli, "solve_weighted_tree", "tree_solver.solve_weighted_tree"),
    (tree_solver, "solve_weighted_tree", "tree_solver.solve_weighted_tree"),
    (cli, "solve_unweighted_tree", "tree_solver.solve_unweighted_tree"),
    (tree_solver, "is_feasible_tree", "tree_solver.is_feasible_tree"),
    (tree_solver, "_UnweightedEngine", "tree_solver.engine_build"),
    (tree_solver, "_UnweightedEngine.counts", "tree_solver.counts"),
]
_LOWEST = "arrangement_search.lowest_feasible_vertex"
_ORACLE = "arrangement_search.oracle"
_TREE_SOLVES = ("tree_solver.solve_weighted_tree", "tree_solver.solve_unweighted_tree")

# per-layer metric name -> unit, in report order
UNITS = {
    "graph_core.parse_instance_s": "s",
    "graph_core.all_pairs_distances_s": "s",
    "graph_core.edge_profile_calls": "count",
    "graph_core.edge_profile_s": "s",
    "general_feasibility.feasible_calls": "count",
    "general_feasibility.feasible_self_s": "s",
    "general_feasibility.profile_calls": "count",
    "general_feasibility.profile_s": "s",
    "general_feasibility.profiles_per_feasible": "ratio",
    "general_feasibility.trim_witness_s": "s",
    "general_feasibility.covered_subtree_s": "s",
    "arrangement_search.candidate_lines_s": "s",
    "arrangement_search.lines": "count",
    "arrangement_search.search_self_s": "s",
    "arrangement_search.oracle_probes": "count",
    "arrangement_search.oracle_feasible_ratio": "ratio",
    "arrangement_search.explicit_runs": "count",
    "arrangement_search.counting_runs": "count",
    "klevel_geometry.build_chains_calls": "count",
    "klevel_geometry.build_chains_s": "s",
    "klevel_geometry.kth_level_s": "s",
    "klevel_geometry.chains": "count",
    "klevel_geometry.level_vertices": "count",
    "tree_engine.build_coverage_arrays_calls": "count",
    "tree_engine.build_coverage_arrays_s": "s",
    "tree_engine.spine_decompose_s": "s",
    "tree_engine.query_count_s": "s",
    "tree_solver.engine_build_s": "s",
    "tree_solver.counts_calls": "count",
    "tree_solver.counts_s": "s",
    "tree_solver.is_feasible_tree_s": "s",
    "tree_solver.solve_self_s": "s",
    "trace_overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve_id: int | None = None
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, on_result=None):
        """fn recording one span per call; on_result(result) counts work."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.solve_id]
            self.spans.append(span)
            self._open.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _lowest(self, fn):
        def on_verdict(feasible):
            self.counts["feasible_probes"] += bool(feasible)

        def lowest(ls, oracle, *args, **kwargs):
            self.counts["lines"] += len(ls)
            return fn(ls, self.wrap(_ORACLE, oracle, on_verdict), *args, **kwargs)

        return self.wrap(_LOWEST, lowest)

    def _count(self, key: str, size):
        def on_result(result):
            self.counts[key] += size(result)

        return on_result

    def install(self) -> None:
        """Rebind every traced name.  A name the program no longer has is
        reported on stderr and leaves its metrics at 0."""
        hooks = {
            "klevel_geometry.build_chains": self._count("chains", lambda cs: len(cs.chains)),
            "klevel_geometry.kth_level": self._count("level_vertices", lambda lv: len(lv.vertices)),
        }
        targets = []
        for module, path, name in _WRAPPED:
            *outer, attr = path.split(".")
            owner = module
            for part in outer:
                owner = getattr(owner, part, None)
            if not hasattr(owner, attr):
                print(f"trace: {module.__name__}.{path} not found, {name} not traced",
                      file=sys.stderr)
                continue
            targets.append((owner, attr, self.wrap(name, getattr(owner, attr), hooks.get(name))))
        targets += [(mod, "lowest_feasible_vertex", self._lowest(mod.lowest_feasible_vertex))
                    for mod in (arrangement_search, tree_solver)]
        for owner, attr, traced in targets:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        total: Counter = Counter()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_s[name] += dur
            if parent is not None:
                self_s[self.spans[parent][0]] -= dur
        c = self.counts
        feasible = calls["general_feasibility.feasible"]
        probes = calls[_ORACLE]
        return {
            "graph_core.parse_instance_s": total["graph_core.parse_instance"],
            "graph_core.all_pairs_distances_s": total["graph_core.all_pairs_distances"],
            "graph_core.edge_profile_calls": calls["graph_core.edge_profile"],
            "graph_core.edge_profile_s": total["graph_core.edge_profile"],
            "general_feasibility.feasible_calls": feasible,
            "general_feasibility.feasible_self_s": self_s["general_feasibility.feasible"],
            "general_feasibility.profile_calls": calls["general_feasibility.profile"],
            "general_feasibility.profile_s": total["general_feasibility.profile"],
            "general_feasibility.profiles_per_feasible": (
                calls["general_feasibility.profile"] / feasible if feasible else 0.0
            ),
            "general_feasibility.trim_witness_s": total["general_feasibility.trim_witness"],
            "general_feasibility.covered_subtree_s": total["general_feasibility.covered_subtree"],
            "arrangement_search.candidate_lines_s": total["arrangement_search.candidate_lines"],
            "arrangement_search.lines": c["lines"],
            "arrangement_search.search_self_s": total[_LOWEST] - total[_ORACLE],
            "arrangement_search.oracle_probes": probes,
            "arrangement_search.oracle_feasible_ratio": (
                c["feasible_probes"] / probes if probes else 0.0
            ),
            "arrangement_search.explicit_runs": calls["arrangement_search.explicit"],
            "arrangement_search.counting_runs": calls["arrangement_search.counting"],
            "klevel_geometry.build_chains_calls": calls["klevel_geometry.build_chains"],
            "klevel_geometry.build_chains_s": total["klevel_geometry.build_chains"],
            "klevel_geometry.kth_level_s": total["klevel_geometry.kth_level"],
            "klevel_geometry.chains": c["chains"],
            "klevel_geometry.level_vertices": c["level_vertices"],
            "tree_engine.build_coverage_arrays_calls": calls["tree_engine.build_coverage_arrays"],
            "tree_engine.build_coverage_arrays_s": total["tree_engine.build_coverage_arrays"],
            "tree_engine.spine_decompose_s": total["tree_engine.spine_decompose"],
            "tree_engine.query_count_s": total["tree_engine.query_count"],
            "tree_solver.engine_build_s": total["tree_solver.engine_build"],
            "tree_solver.counts_calls": calls["tree_solver.counts"],
            "tree_solver.counts_s": total["tree_solver.counts"],
            "tree_solver.is_feasible_tree_s": total["tree_solver.is_feasible_tree"],
            "tree_solver.solve_self_s": sum(self_s[n] for n in _TREE_SOLVES),
        }
