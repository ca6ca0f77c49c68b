"""Planted faults: one-text changes to src/segreml that the suite is known to catch.

Each row of FAULTS maps a name to (file under src/segreml, old text, new
text, the tests that fail once the old text is replaced by the new one).
The old text occurs exactly once in its file (`test_faults.py` checks it in
tier-1), and with SEGREML_EXHAUSTIVE=1 `test_faults.py` plants each fault in
a copy of the tree and runs its tests there, each of which must fail.  The
test lists are what the whole tier-1 suite reported on such a copy, less
`test_faults.py`, whose tier-1 check fails on every planted copy.

Mutation analysis after DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer, 1978: a string replacement on a copy is enough.
"""

from __future__ import annotations

FAULTS: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    # the cold-start closure: `mldeg` would load the oracle and groebner
    "cli imports the oracle at its top": (
        "cli.py",
        "from . import euler\n",
        "from . import euler\nfrom .oracle import oracle_mldeg\n",
        (
            "tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[analyze]",
            "tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[atlas]",
            "tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[matrix-mldeg]",
            "tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[mldeg]",
            "tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[realize]",
            "tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[signs]",
            "tests/test_package.py::test_importing_the_cli_loads_the_base_modules_and_no_dataclasses_inspect_or_typing",
        ),
    ),
    # two quadratics that share a root are called coprime
    "pair gcd of two quadratics with a shared root is 1": (
        "exact.py",
        "    return t, -s\n",
        "    return _ONE\n",
        (
            "tests/test_acceptance.py::test_criterion_1_counterexample_pair",
            "tests/test_acceptance.py::test_criterion_7_degree_bound_law",
            "tests/test_cli.py::test_analyze_output_is_pinned",
            "tests/test_euler.py::test_arrangement_agrees_with_inclusion_exclusion",
            "tests/test_euler.py::test_chi_VI_closed_form_examples",
            "tests/test_euler.py::test_chi_VI_examples",
            "tests/test_euler.py::test_mldeg_answers_without_the_pattern",
            "tests/test_euler.py::test_mldeg_examples",
            "tests/test_euler.py::test_pencil_base_points_meet_three_components",
            "tests/test_euler.py::test_point_formula_agrees_with_engine",
            "tests/test_exact.py::test_binary_gcd_divides_both",
            "tests/test_exact.py::test_binary_gcd_matches_sympy",
            "tests/test_factors.py::test_hyp223_examples",
            "tests/test_factors.py::test_hyp223_matches_chart_emptiness_oracle",
            "tests/test_factors.py::test_torus_images_keep_the_short_view_and_every_output",
            "tests/test_factors.py::test_vanishing_cascades_on_forced_tensors",
            "tests/test_factors.py::test_vanishing_patterns",
        ),
    ),
    # a double root is counted twice
    "distinct roots of a zero discriminant are 2": (
        "exact.py",
        "return 2 if c1 * c1 != 4 * c0 * c2 else 1",
        "return 2",
        (
            "tests/test_acceptance.py::test_criterion_6_closed_form_agreement",
            "tests/test_cli.py::test_analyze_output_is_pinned",
            "tests/test_euler.py::test_arrangement_agrees_with_inclusion_exclusion",
            "tests/test_euler.py::test_pencil_base_points_meet_three_components",
            "tests/test_euler.py::test_point_formula_agrees_with_engine",
            "tests/test_exact.py::test_discriminant",
            "tests/test_exact.py::test_distinct_root_counts",
            "tests/test_exact.py::test_distinct_roots_of_linear_products",
            "tests/test_factors.py::test_torus_images_keep_the_short_view_and_every_output",
        ),
    ),
    # rational points on one fibre t = y0/y1 merge
    "rational point keyed by t alone": (
        "euler.py",
        "points.append(((tn, td), s))",
        "points.append(((tn, td), None))",
        (
            "perfbench/test_perfbench.py::test_correct_program_passes_the_gate",
            "perfbench/test_perfbench.py::test_counts_repeat_across_hash_seeds",
            "tests/test_acceptance.py::test_criterion_2_hook_example_both_routes",
            "tests/test_acceptance.py::test_criterion_3_stratification_atlas",
            "tests/test_acceptance.py::test_criterion_4_realizability",
            "tests/test_acceptance.py::test_criterion_5_oracle_cross_validation",
            "tests/test_acceptance.py::test_criterion_7_degree_bound_law",
            "tests/test_acceptance.py::test_criterion_8_symmetry_laws",
            "tests/test_euler.py::test_a_merged_point_key_fails_the_pair_count_check[rational key by t alone]",
            "tests/test_euler.py::test_arrangement_agrees_with_inclusion_exclusion",
            "tests/test_euler.py::test_duplicated_slice_tensor_keeps_mldeg",
            "tests/test_euler.py::test_equal_patterns_equal_mldeg_for_n1",
            "tests/test_euler.py::test_mldeg_bounds_on_positive_tensors",
            "tests/test_euler.py::test_pencil_base_points_meet_three_components",
            "tests/test_euler.py::test_point_formula_agrees_with_engine",
            "tests/test_factors.py::test_integer_view_is_built_once_and_read_by_every_table",
            "tests/test_factors.py::test_torus_images_keep_the_short_view_and_every_output",
            "tests/test_oracle.py::test_merged_components",
            "tests/test_oracle.py::test_reduced_count_matches_the_full_system_and_the_engine",
            "tests/test_realize.py::test_generic_solution_exact_patterns",
            "tests/test_realize.py::test_generic_solution_random_n3",
            "tests/test_realize.py::test_realize_full_range",
            "tests/test_realize.py::test_realize_pads_large_n_without_recursion",
            "tests/test_strata.py::test_table_matches_the_engine_on_grid_and_degenerate_tensors",
            "tests/test_strata.py::test_witnesses_all_strata",
        ),
    ),
    # conjugate pairs over one t-polynomial merge
    "conjugate key without its B term": (
        "euler.py",
        "return [(c0, c1, c2, A // g, B // g, N // g)]",
        "return [(c0, c1, c2, A // g, 0, N // g)]",
        (
            "tests/test_euler.py::test_a_merged_point_key_fails_the_pair_count_check[conjugate key without B]",
            "tests/test_euler.py::test_arrangement_agrees_with_inclusion_exclusion",
            "tests/test_oracle.py::test_oracle_examples",
        ),
    ),
    # the same m, rounded through a float
    "mldeg_value rounds m through 0.5": (
        "euler.py",
        "        m = (1 + math.isqrt(8 * k + 1)) // 2\n",
        "        m = int(0.5 + math.isqrt(8 * k + 1) / 2)\n",
        (
            "tests/test_no_floats.py::test_src_spells_no_float_operation",
        ),
    ),
    # the same answer, through a float
    "mldeg_value returns float(total) as an int": (
        "euler.py",
        "        total += (2 if len(key) == 6 else 1) * (m - 1)\n    return total\n",
        "        total += (2 if len(key) == 6 else 1) * (m - 1)\n    return int(float(total))\n",
        (
            "tests/test_no_floats.py::test_src_spells_no_float_operation",
        ),
    ),
    # an int / int division bound to a local that nothing reads
    "mldeg_value halves len(forms) with /": (
        "euler.py",
        "    forms, pairs = _arrangement(W)\n",
        "    forms, pairs = _arrangement(W)\n    half = len(forms) / 2\n",
        (
            "tests/test_no_floats.py::test_one_op_per_command_makes_no_float",
            "tests/test_no_floats.py::test_the_trace_sees_a_float_in_a_local_and_in_a_returned_tuple",
        ),
    ),
}
