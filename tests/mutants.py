"""Mutants of latcut's source that the test suite must kill, and a runner.

Each mutant is one exact snippet of a file under ``src/latcut``, which
must occur there exactly once, its replacement, and the test node ids
that must each fail once the replacement is made (DeMillo, Lipton &
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).
`tests/test_mutants.py` checks, in the normal test run, only that every
snippet still occurs once and every listed test still exists, so the
catalogue fails loudly when the code it guards moves.

The runner copies ``src/`` to a temporary directory, applies one mutant
there, and runs that mutant's tests against the copy in a subprocess;
the working tree is never edited.  It reports each mutant as killed,
when every listed test fails, or as a survivor, naming the tests that
did not fail, and exits 1 if any survives.  Run it from anywhere:

    python tests/mutants.py

This file is not collected by pytest, so the normal test run applies no
mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/latcut
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # node ids, each of which must fail


MUTANTS = (
    # The Selling step's weights and scale, both left undivided by the
    # products' gcd: right values over a scale that is not canonical.
    Mutant("no-gcd-division", "lattice.py",
           "            common = math.gcd(common, row[j])\n",
           "            common = 1\n",
           ("tests/test_mincut.py::test_a3star_gives_quarter_weight_complete_graph",
            "tests/test_cli.py::test_format_parse_round_trip",
            "tests/test_text_reference.py::test_text_to_cut_matches_the_fraction_reference")),
    # The Selling step's rank-two correction without its -<c, c> term.
    Mutant("correction-without-square", "lattice.py",
           "repeat(cross[i] - square)",
           "repeat(cross[i])",
           ("tests/test_graph_builder_reference.py::test_the_products_match_a_per_pair_reference",
            "tests/test_generators.py::test_anstar_graph_is_complete_with_uniform_weight_at_size")),
    # Dense columns shifted by their most common value, and the
    # correction that restores the products skipped.
    Mutant("shift-without-correction", "lattice.py",
           "    if any(shift):\n",
           "    if False:\n",
           ("tests/test_graph_builder_reference.py::test_the_products_match_a_per_pair_reference",
            "tests/test_generators.py::test_anstar_graph_is_complete_with_uniform_weight_at_size")),
    # The gate reports a disconnected superbase with the Gram class.
    Mutant("superbase-wrong-rank", "lattice.py",
           "_check_graph(adj, scale, RankDeficient)",
           "_check_graph(adj, scale, WrongRank)",
           ("tests/test_lattice.py::test_rank_deficient_on_degenerate_directions",
            "tests/test_pipeline.py::test_zero_weight_cut_detected",
            "tests/test_graph_builder_reference.py::test_the_graph_from_products_matches_the_composition")),
    # ObtuseViolation names the last positive pair, not the first.
    Mutant("last-positive-pair", "lattice.py",
           "i, j = min((i, j) for i, neighbours in enumerate(adj)",
           "i, j = max((i, j) for i, neighbours in enumerate(adj)",
           ("tests/test_gram_reference.py::test_checks_match_the_reference",
            "tests/test_superbase_reference.py::test_validate_superbase_matches_the_fraction_reference")),
    # A superbase's form divided by its scale, not by the scale squared.
    Mutant("form-over-scale", "lattice.py",
           "Fraction(sum(map(operator.mul, total, total)), lattice.scale ** 2)",
           "Fraction(sum(map(operator.mul, total, total)), lattice.scale)",
           ("tests/test_pipeline.py::test_certificates_are_sound",
            "tests/test_graph_builder_reference.py::test_the_graph_from_products_matches_the_composition")),
    # The candidate key's slot as the bit-reversed mask itself, so ties
    # in squared length and size come out in reverse order.
    Mutant("slot-without-complement", "pipeline.py",
           "if not slot >> count - 1 - j & 1)",
           "if slot >> count - 1 - j & 1)",
           ("tests/test_golden.py::test_candidates_output_matches_golden",
            "tests/test_walks.py::test_candidate_vectors_match_the_ascending_enumeration")),
    # The squared length's field overlaps the size's top bit.
    Mutant("shift-one-bit-short", "pipeline.py",
           "shift = size + size.bit_length()",
           "shift = size + size.bit_length() - 1",
           ("tests/test_pipeline.py::test_candidates_sorted_and_consistent_with_oracle",
            "tests/test_walks.py::test_candidates_lines_parse_back_to_candidate_vectors")),
    # |H + L|² without the 2 of 2 H·L.
    Mutant("dot-product-not-doubled", "pipeline.py",
           "<< shift + 1)",
           "<< shift)",
           ("tests/test_pipeline.py::test_a2_candidates_are_the_six_unit_differences",
            "tests/test_golden.py::test_candidates_output_matches_golden")),
    # An integer printed as p only when its gcd with the scale is 1.
    Mutant("p-only-when-g-is-1", "cli.py",
           "str(x // g) if g == self.scale",
           "str(x // g) if g == 1",
           ("tests/test_golden.py::test_gen_output_matches_golden",
            "tests/test_cli.py::test_candidates_on_example3d")),
    # `candidates` loses the first line of every 1024-line chunk.
    Mutant("line-dropped-per-chunk", "cli.py",
           "islice(lines, _CHUNK_LINES)",
           "islice(lines, 1, _CHUNK_LINES)",
           ("tests/test_golden.py::test_candidates_output_matches_golden",
            "tests/test_cli.py::test_candidates_on_example3d")),
    # A row past the declared count is refused without first reading the
    # earlier rows' tokens, so a later line's ShapeError beats a bad token.
    Mutant("shape-error-before-earlier-tokens", "cli.py",
           "raise _first_bad_token(text, len(rows)) or ShapeError(\n"
           "                lineno, f\"expected {expected_rows} rows, found more\")",
           "raise ShapeError(\n"
           "                lineno, f\"expected {expected_rows} rows, found more\")",
           ("tests/test_cli.py::test_the_first_bad_token_of_a_row_is_reported",
            "tests/test_text_reference.py::test_the_parser_matches_a_line_by_line_reference")),
    # The row count at the end of the file checked before the tokens, so
    # missing rows beat a bad token on an earlier line.
    Mutant("row-count-before-tokens", "cli.py",
           "raise _first_bad_token(text, len(rows)) or ShapeError(\n"
           "            len(text.splitlines()),",
           "raise ShapeError(\n"
           "            len(text.splitlines()),",
           ("tests/test_cli.py::test_the_first_bad_token_of_a_row_is_reported",
            "tests/test_text_reference.py::test_the_parser_matches_a_line_by_line_reference")),
    # `svp` labels its coordinates by their JSON key, not as the vector.
    Mutant("coordinates-label-dropped", "cli.py",
           ', "coordinates": "vector"}',
           "}",
           ("tests/test_golden.py::test_svp_stdout_matches_golden",)),
    # Karger-Stein stops after its first trial, its cut unproven.
    Mutant("stop-without-proof", "mincut.py",
           "if best[0] == least:",
           "if True:",
           ("tests/test_mincut.py::test_ks_runs_its_trials_until_the_first_that_finds_the_minimum_cut",
            "tests/test_contraction_reference.py::test_karger_stein_matches_the_reference_at_the_default_trial_count",
            "tests/test_golden.py::test_svp_stdout_matches_golden")),
    # A trial's recursion weighs every base case of its tree, though a
    # branch of weight lambda already fixes every result above it.
    Mutant("branch-stop-dropped", "mincut.py",
           "if candidate[0] == least:",
           "if False:",
           ("tests/test_contraction_reference.py::test_a_trial_stops_at_its_first_base_case_of_the_minimum_weight",
            "tests/test_contraction_reference.py::test_a_trial_whose_first_branch_misses_stops_in_its_second",
            "tests/test_contraction_reference.py::test_a_trial_weighs_the_whole_tree_s_base_cases_up_to_lambda")),
    # A trial's recursion stops after its first branch, whatever that
    # branch's cut weighs.
    Mutant("branch-stop-unproven", "mincut.py",
           "if candidate[0] == least:",
           "if True:",
           ("tests/test_contraction_reference.py::test_karger_stein_matches_the_reference",
            "tests/test_contraction_reference.py::test_a_trial_whose_first_branch_misses_stops_in_its_second")),
    # Karger-Stein takes one unit below the prover's answer, so a first
    # trial that finds the minimum cut never stops the trials.
    Mutant("stop-bound-one-short", "mincut.py",
           "least = _lightest(adjacency)[0]",
           "least = _lightest(adjacency)[0] - 1",
           ("tests/test_mincut.py::test_ks_stops_once_its_cut_is_proved_minimal",)),
    # The prover's first round answers only when its own bound passes the
    # least degree, not when it reaches it: sound, since the rounds then
    # stop before their first, but a first round that proves the least
    # degree, a star's, a cycle's or a complete graph's, copies the graph
    # for nothing.
    Mutant("prover-without-zero-guard", "mincut.py",
           "if first[3] >= bound:",
           "if first[3] > bound:",
           ("tests/test_certificate.py::test_the_first_round_proves_the_star",
            "tests/test_mincut.py::test_ks_proves_a_cycle_with_no_round",
            "tests/test_contraction_reference.py::test_stoer_wagner_stops_once_no_later_phase_can_be_lighter")),
    # A merge moves edge {u, drop}'s weight onto keep's upper-row sum, not
    # onto that of {u, keep}'s lower end.
    Mutant("merge-onto-keep-row", "mincut.py",
           "upper[u if u < keep else keep] += w",
           "upper[keep] += w",
           ("tests/test_contraction_reference.py::test_karger_stein_matches_the_reference",
            "tests/test_contraction_reference.py::test_contraction_sums_and_picks_survive_merges_and_clones")),
    # A walk takes its maps' entries, 2|E|, for |E|, so graphs of half
    # the density scan.
    Mutant("walk-edges-counted-twice", "mincut.py",
           ">= 2 * len(adj) ** 2:",
           ">= len(adj) ** 2:",
           ("tests/test_certificate.py::test_the_rounds_follow_the_phases_walk_rule",)),
    # The prover's first round, Stoer-Wagner's first phase, walks at an
    # infinite bound, so it lists no edge: sound, but the round joins only
    # its last two vertices, and the prover needs more rounds.
    Mutant("first-phase-at-infinity", "mincut.py",
           "_walk(view, bound or math.inf)",
           "_walk(view, math.inf)",
           ("tests/test_contraction_reference.py::test_stoer_wagner_stops_once_no_later_phase_can_be_lighter",
            "tests/test_certificate.py::test_the_prover_gives_the_minimum_cut_and_its_first_round")),
    # The prover starts one unit below the least degree, so a least
    # degree that is the minimum cut never stops Stoer-Wagner's phases.
    Mutant("prover-below-the-degree", "mincut.py",
           "bound = min(map(sum, map(dict.values, adjacency)))",
           "bound = min(map(sum, map(dict.values, adjacency))) - 1",
           ("tests/test_contraction_reference.py::test_stoer_wagner_stops_once_no_later_phase_can_be_lighter",)),
    # The second phase starts on the uncontracted copy, so it walks the
    # first phase again before the later phases go on.
    Mutant("second-phase-without-first-merge", "mincut.py",
           "        state.merge(s, t)\n        while best[0] > least:",
           "        while best[0] > least:",
           ("tests/test_contraction_reference.py::test_stoer_wagner_stops_once_no_later_phase_can_be_lighter",)),
    # A scan walk's `low` as the largest key plus paths, not the least.
    Mutant("scan-low-by-max", "mincut.py",
           "key.get(u, 0) >= bound]\n"
           "        if last + paths < low:",
           "key.get(u, 0) >= bound]\n"
           "        if low == math.inf or last + paths > low:",
           ("tests/test_certificate.py::test_the_phase_bound_lies_between_the_keys_and_the_minimum_cut",
            "tests/test_contraction_reference.py::test_stoer_wagner_matches_the_reference")),
    # A scan walk adds the last of the largest keys, not the first, so
    # it breaks ties toward the highest index, unlike a heap walk.
    Mutant("scan-tie-to-last", "mincut.py",
           "if k > top:\n                top, v = k, u\n",
           "if k >= top:\n                top, v = k, u\n",
           ("tests/test_contraction_reference.py::test_stoer_wagner_matches_the_reference",)),
    # A heap walk's `low` as the largest key plus paths, not the least.
    Mutant("heap-low-by-max", "mincut.py",
           "                    joined.append((v, u))\n"
           "        if last + paths < low:",
           "                    joined.append((v, u))\n"
           "        if low == math.inf or last + paths > low:",
           ("tests/test_certificate.py::test_the_phase_bound_lies_between_the_keys_and_the_minimum_cut",
            "tests/test_contraction_reference.py::test_stoer_wagner_matches_the_reference_when_it_stops_early")),
    # Both walks' PR2 at three times the key, not twice: moving the
    # vertex across a cut may then make it heavier, so its degree can
    # pass the minimum cut.
    Mutant("pr2-at-three-keys", "mincut.py",
           "<= 2 * last:",
           "<= 3 * last:",
           ("tests/test_certificate.py::test_the_term_of_a_vertex_by_pr4_or_lifted_by_pr2",
            "tests/test_certificate.py::test_the_phase_bound_lies_between_the_keys_and_the_minimum_cut",
            "tests/test_certificate.py::test_the_prover_gives_the_minimum_cut_and_its_first_round")),
    # Both walks' `low` by PR4 alone: sound, but a cycle's first round
    # reads 1, not 2, and the rounds must prove it; the heap walk walks
    # the large cycles, so A_n's Selling graph then needs its rounds.
    Mutant("without-pr2", "mincut.py",
           "    if last + paths < degree <= 2 * last:\n"
           "        return degree if degree < low else low\n",
           "",
           ("tests/test_certificate.py::test_the_term_of_a_vertex_by_pr4_or_lifted_by_pr2",
            "tests/test_certificate.py::test_pr2_lifts_the_cycle_s_bound_from_one_to_two",
            "tests/test_certificate.py::test_proves_the_cycle",
            "tests/test_certificate.py::test_proves_the_family_graphs",
            "tests/test_mincut.py::test_ks_proves_a_cycle_with_no_round")),
    # A scan walk's paths summed from keys already updated.
    Mutant("scan-key-read-after-update", "mincut.py",
           "            if w:\n"
           "                paths += k if k < w else w\n"
           "                key[u] = k = k + w\n",
           "            if w:\n"
           "                key[u] = k = k + w\n"
           "                paths += k if k < w else w\n",
           ("tests/test_certificate.py::test_the_phase_bound_lies_between_the_keys_and_the_minimum_cut",
            "tests/test_contraction_reference.py::test_stoer_wagner_matches_the_reference")),
    # A scan round lists (t, u) by u's key before t's weight was added,
    # not by q(t, u): sound, since that key is the q of an earlier edge
    # into u, but it joins fewer edges per round.
    Mutant("rounds-q-read-before-update", "mincut.py",
           "if key.get(u, 0) >= bound]",
           "if key.get(u, 0) - nbrs[u] >= bound]",
           ("tests/test_certificate.py::test_a_round_joins_the_edges_whose_q_reaches_the_bound",)),
    # The same in a heap round: q(e) read before e's weight is added.
    Mutant("heap-q-read-before-update", "mincut.py",
           "                key[u] = k = k + w\n"
           "                heappush(heap, (-k, u))\n"
           "                if k >= bound:\n"
           "                    joined.append((v, u))\n",
           "                if k >= bound:\n"
           "                    joined.append((v, u))\n"
           "                key[u] = k = k + w\n"
           "                heappush(heap, (-k, u))\n",
           ("tests/test_certificate.py::test_a_round_joins_the_edges_whose_q_reaches_the_bound",)),
    # A heap round joins an edge only when q(e) passes the bound, not
    # when it reaches it: sound, but fewer edges per round.
    Mutant("rounds-threshold-strict", "mincut.py",
           "if k >= bound:",
           "if k > bound:",
           ("tests/test_certificate.py::test_a_round_joins_the_edges_whose_q_reaches_the_bound",)),
    # The rounds never lower the bound to a lighter contracted degree, the
    # only way they learn a minimum cut below the least degree, so the
    # prover answers the least degree.
    Mutant("rounds-degree-unlowered", "mincut.py",
           "            if degree < bound:\n"
           "                bound = degree\n",
           "",
           ("tests/test_certificate.py::test_the_prover_gives_the_minimum_cut_and_its_first_round",
            "tests/test_certificate.py::test_the_prover_lowers_the_bound_to_each_lighter_cut")),
    # A heap walk's paths summed from keys already updated.
    Mutant("heap-key-read-after-update", "mincut.py",
           "            if k is not None:\n"
           "                paths += k if k < w else w\n"
           "                key[u] = k = k + w\n",
           "            if k is not None:\n"
           "                key[u] = k = k + w\n"
           "                paths += k if k < w else w\n",
           ("tests/test_certificate.py::test_the_phase_bound_lies_between_the_keys_and_the_minimum_cut",
            "tests/test_contraction_reference.py::test_stoer_wagner_matches_the_reference_when_it_stops_early")),
    # The Karger-Stein base case gathers the members of the supervertices
    # off its side: the same weight, the complement side.
    Mutant("base-case-gathers-the-unmasked", "mincut.py",
           "if mask >> k & 1]",
           "if not mask >> k & 1]",
           ("tests/test_walks.py::test_exhaustive_cut_matches_on_merged_states",
            "tests/test_walks.py::test_a_found_cut_keeps_its_side_as_its_state_merges_on",
            "tests/test_contraction_reference.py::test_karger_stein_matches_the_reference")),
    # The exhaustive walker weighs the full side, of weight 0, too.
    Mutant("walk-keeps-the-full-side", "mincut.py",
           "sides = lows if part != full else lows[:-1]",
           "sides = lows",
           ("tests/test_walks.py::test_walks_match_on_two_and_three_vertices",
            "tests/test_walks.py::test_exhaustive_cut_matches_on_merged_states",
            "tests/test_contraction_reference.py::test_brute_force_matches_the_reference")),
    # The walker gathers a high part's tied sides only when they are
    # strictly lighter, so between parts the walk order breaks ties.
    Mutant("walk-tie-by-walk-order", "mincut.py",
           "if weight <= best_weight:",
           "if weight < best_weight:",
           ("tests/test_walks.py::test_walks_match_on_every_small_unit_weight_graph",
            "tests/test_walks.py::test_walks_match_at_odd_and_even_sizes",
            "tests/test_contraction_reference.py::test_brute_force_matches_the_reference")),
    # A high vertex that leaves the walk's part takes its row off again,
    # as when it joined, instead of putting it back.
    Mutant("walk-leaving-row-taken-off", "mincut.py",
           "sub if part >> t & 1 else add",
           "sub if part >> t & 1 else sub",
           ("tests/test_walks.py::test_walks_match_at_odd_and_even_sizes",
            "tests/test_walks.py::test_exhaustive_cut_matches_on_merged_states",
            "tests/test_contraction_reference.py::test_karger_stein_matches_the_reference")),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Make `mutant`'s replacement in the copy of ``src/`` at `src`."""
    path = src / "latcut" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs "
                         f"{text.count(mutant.snippet)} times in {path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement),
                    encoding="utf-8")


def survivors(mutant: Mutant) -> list[str]:
    """The listed tests that do not fail with `mutant` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    failed = {line.split(" - ")[0].removeprefix("FAILED ").split("[")[0]
              for line in result.stdout.splitlines()
              if line.startswith("FAILED ")}
    return [test for test in mutant.tests if test not in failed]


def main() -> int:
    alive = 0
    for mutant in MUTANTS:
        left = survivors(mutant)
        alive += bool(left)
        print(f"{mutant.name}: " + ("killed" if not left else
                                    "SURVIVED, not failing " + ", ".join(left)),
              flush=True)
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
