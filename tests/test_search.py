import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netshrink import search, supernet
from netshrink import tensor as T
from netshrink.config import DiscoveredConfig, TrainingConfig
from netshrink.cost import LatencyTable, synthetic_latency_table, total_resource
from netshrink.data import Dataset, synth_classification, three_way_split
from netshrink.errors import FeasibilityError, GridError, InfeasibleTargetError, ParseError, tagged_csv
from netshrink.search import (
    HoldoutPrefix,
    SampleRecord,
    SearchConfig,
    evaluate_run,
    evaluate_sample,
    generate_mcd_sample,
    generate_scd_samples,
    iteration_budget,
    layer_max_reduction,
    load_trajectory_choices,
    mcd_max_reduction,
    min_resource_choice,
    reduction_schedule,
    run_search,
    scd_max_reduction,
    search_log_csv,
    select_best,
    shrink_options,
    train_subnetwork,
    train_supernetwork,
    trajectory_replay_finetune,
    write_trajectory,
)
from netshrink.supernet import (
    LayerSpec, SubNetChoice, SuperNetwork, first_changed_layer, full_width_choice,
)

from test_supernet import random_stack


def small_specs():
    return [
        LayerSpec(index=0, c=3, t=6, k_max=3, stride=1),
        LayerSpec(index=1, c=6, t=6, k_max=5, stride=1),
        LayerSpec(index=2, c=6, t=6, k_max=3, stride=1),
    ]


def trajectory_text(*entries):
    """A trajectory file's text with one row per (M, k) pair of each entry."""
    return json.dumps([[{"kind": "conv", "M": m, "k": k} for m, k in e] for e in entries])


def six_layer_specs():
    return [
        LayerSpec(index=0, c=3, t=8, k_max=5, stride=1),
        LayerSpec(index=1, c=8, t=8, k_max=3, stride=1),
        LayerSpec(index=2, c=8, t=8, k_max=3, stride=2),
        LayerSpec(index=3, c=8, t=8, k_max=3, stride=1),
        LayerSpec(index=4, c=8, t=4, k_max=3, stride=1),
        LayerSpec(index=5, c=4, t=8, k_max=3, stride=1),
    ]


def make_config(target, **kw):
    base = dict(
        samples_per_iteration=8,
        layers_per_sample=3,
        init_reduction=0.03,
        decay=0.98,
        target_resource=target,
        seed=11,
    )
    base.update(kw)
    return SearchConfig(**base)


def tiny_holdout(seed=0, n_per_class=5, classes=3, hw=6):
    return synth_classification(classes, n_per_class, hw, hw, seed=seed, noise=0.3)


class TestSchedule:
    def test_paper_percentages(self):
        cfg = make_config(1.0, init_reduction=0.03, decay=0.98)
        assert reduction_schedule(100.0, cfg, 0) == pytest.approx(3.0, rel=1e-12)
        assert reduction_schedule(100.0, cfg, 2) == pytest.approx(2.8812, rel=1e-12)

    def test_decay_one_is_constant(self):
        cfg = make_config(1.0, decay=1.0)
        assert reduction_schedule(50.0, cfg, 0) == reduction_schedule(50.0, cfg, 40)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            reduction_schedule(1.0, make_config(1.0), -1)

    def test_budget_is_the_scheduled_cut_from_the_previous_best_clamped_at_the_floor(self):
        # r0 = 64, init_reduction 1/4, decay 1/2: the cut at iteration i is 16 / 2**i
        cfg = make_config(1.0, init_reduction=0.25, decay=0.5)
        assert iteration_budget(64.0, 64.0, cfg, 0, 1.0) == 48.0
        assert iteration_budget(40.0, 64.0, cfg, 1, 1.0) == 32.0
        assert iteration_budget(30.0, 64.0, cfg, 3, 1.0) == 28.0
        assert iteration_budget(5.0, 64.0, cfg, 2, 1.0) == 1.0  # lands on the floor
        assert iteration_budget(5.0, 64.0, cfg, 2, 3.0) == 3.0  # 5 - 4 is below the floor of 3


class TestShrinkOptions:
    def test_every_option_strictly_shrinks(self):
        spec = LayerSpec(index=0, c=4, t=8, k_max=5, stride=1)
        for opt in shrink_options(spec, 6, 5):
            m2, k2 = opt
            assert m2 <= 6 and (m2 == 0 or k2 <= 5)
            assert (m2, k2) != (6, 5)

    def test_removed_layer_has_no_options(self):
        spec = LayerSpec(index=0, c=4, t=8, k_max=5, stride=1)
        assert shrink_options(spec, 0, 3) == []

    def test_kernel_only_shrink_allowed(self):
        spec = LayerSpec(index=0, c=4, t=8, k_max=5, stride=1)
        assert (8, 3) in shrink_options(spec, 8, 5)


class TestMcdSampling:
    def setup_method(self):
        self.specs = small_specs()
        self.table = synthetic_latency_table(self.specs, (6, 6), seed=1)
        self.full = full_width_choice(self.specs)

    def test_meets_reduction_and_changes_at_most_l_layers(self):
        rng = np.random.default_rng(0)
        r0 = total_resource(self.full, self.table)
        required = 0.05 * r0
        for _ in range(50):
            sample = generate_mcd_sample(self.specs, self.table, self.full, 2, r0 - required, rng)
            assert total_resource(sample, self.table) <= r0 - required + 1e-9
            changed = [
                i for i, (a, b) in enumerate(zip(sample.pairs, self.full.pairs)) if a != b
            ]
            assert 1 <= len(changed) <= 2
            for i in changed:
                m0, k0 = self.full.pairs[i]
                m1, k1 = sample.pairs[i]
                assert m1 <= m0 and (m1 == 0 or k1 <= k0)
                assert (m1, k1) != (m0, k0)

    def test_zero_required_reduction_still_requires_a_change(self):
        rng = np.random.default_rng(1)
        r0 = total_resource(self.full, self.table)
        for _ in range(20):
            sample = generate_mcd_sample(self.specs, self.table, self.full, 1, r0, rng)
            assert sample.pairs != self.full.pairs

    def test_single_layer_network_degenerates_to_single_layer_shrink(self):
        specs = [LayerSpec(index=0, c=3, t=8, k_max=3, stride=1)]
        table = synthetic_latency_table(specs, (6, 6), seed=2)
        full = full_width_choice(specs)
        rng = np.random.default_rng(2)
        sample = generate_mcd_sample(specs, table, full, 1, total_resource(full, table), rng)
        assert sample.pairs[0][0] <= 8

    def test_escalation_reaches_deep_cuts(self, monkeypatch):
        # a cut close to the 3-layer capacity: rejection will often fail, the
        # forced-minimum fallback must still find the (existing) solution
        monkeypatch.setattr(search, "_MAX_ATTEMPTS", 5)
        rng = np.random.default_rng(3)
        capacity = mcd_max_reduction(self.specs, self.table, self.full, 3)
        r0 = total_resource(self.full, self.table)
        sample = generate_mcd_sample(self.specs, self.table, self.full, 3, r0 - 0.999 * capacity, rng)
        reduction = r0 - total_resource(sample, self.table)
        assert reduction >= 0.999 * capacity - 1e-9

    def test_draws_are_pinned_for_a_seed(self):
        # the sampler's rng stream decides every search artifact, so its draws stay put
        specs = six_layer_specs()
        table = synthetic_latency_table(specs, (8, 8), seed=20)
        best = full_width_choice(specs).replace(1, 4, 3).replace(4, 2, 3)
        budget = total_resource(best, table) - 0.1 * total_resource(best, table)
        rng = np.random.default_rng(17)
        got = [generate_mcd_sample(specs, table, best, 3, budget, rng).pairs for _ in range(8)]
        assert got == [
            ((4, 5), (4, 3), (6, 3), (8, 3), (0, 3), (8, 3)),
            ((3, 5), (2, 3), (5, 3), (8, 3), (2, 3), (8, 3)),
            ((2, 5), (4, 3), (8, 3), (2, 3), (2, 3), (4, 3)),
            ((7, 3), (4, 3), (8, 3), (8, 3), (0, 3), (0, 3)),
            ((8, 5), (4, 3), (1, 3), (8, 3), (1, 3), (1, 3)),
            ((5, 3), (0, 3), (8, 3), (3, 3), (2, 3), (8, 3)),
            ((8, 5), (1, 3), (6, 3), (8, 3), (0, 3), (8, 3)),
            ((3, 3), (3, 3), (8, 3), (7, 3), (2, 3), (8, 3)),
        ]
        assert rng.integers(1 << 30) == 838432399  # and took the same number of draws

    def test_infeasible_reduction_raises_with_attempts(self, monkeypatch):
        monkeypatch.setattr(search, "_MAX_ATTEMPTS", 7)
        rng = np.random.default_rng(4)
        capacity = mcd_max_reduction(self.specs, self.table, self.full, 2)
        budget = total_resource(self.full, self.table) - capacity * 1.5
        with pytest.raises(FeasibilityError, match=re.escape(f"meets the budget {budget:.6g}")) as err:
            generate_mcd_sample(self.specs, self.table, self.full, 2, budget, rng)
        assert err.value.attempts >= 7

    def test_an_infeasible_budget_escalates_after_200_proposals(self):
        # each proposal draws its layers, then one option per picked layer; the
        # rng stream behind every search artifact depends on the count
        capacity = mcd_max_reduction(self.specs, self.table, self.full, 2)
        budget = total_resource(self.full, self.table) - capacity * 1.5
        rng = np.random.default_rng(4)
        with pytest.raises(FeasibilityError) as err:
            generate_mcd_sample(self.specs, self.table, self.full, 2, budget, rng)
        assert err.value.attempts == 200 + 2  # and then two forced layers
        options = [shrink_options(s, *pair) for s, pair in zip(self.specs, self.full.pairs)]
        replay = np.random.default_rng(4)
        for _ in range(200):
            for i in sorted(replay.choice(3, size=2, replace=False)):
                replay.integers(len(options[i]))
        assert rng.random() == replay.random()


class TestScdSampling:
    def setup_method(self):
        self.specs = small_specs()
        self.table = synthetic_latency_table(self.specs, (6, 6), seed=3)
        self.full = full_width_choice(self.specs)

    def test_each_sample_modifies_exactly_one_layer(self):
        samples = generate_scd_samples(
            self.specs, self.table, self.full, total_resource(self.full, self.table)
        )
        assert 1 <= len(samples) <= 3
        for s in samples:
            changed = [i for i, (a, b) in enumerate(zip(s.pairs, self.full.pairs)) if a != b]
            assert len(changed) == 1

    def test_reduction_beyond_single_layer_capacity_yields_empty_list(self):
        capacity = scd_max_reduction(self.specs, self.table, self.full)
        budget = total_resource(self.full, self.table) - capacity * 1.01
        samples = generate_scd_samples(self.specs, self.table, self.full, budget)
        assert samples == []

    def test_full_layer_cut_turns_into_removal(self):
        # demand exactly layer 1's whole latency: only M=0 on layer 1 meets it
        r1 = layer_max_reduction(self.specs, self.table, self.full, 1)
        budget = total_resource(self.full, self.table) - r1
        samples = generate_scd_samples(self.specs, self.table, self.full, budget)
        by_layer = {
            next(i for i, (a, b) in enumerate(zip(s.pairs, self.full.pairs)) if a != b): s
            for s in samples
        }
        assert by_layer[1].pairs[1][0] == 0

    def test_a_resource_within_rounding_of_the_budget_meets_it(self):
        # a bound worked out another way, such as R - (R - B), can land an ulp off B:
        # a relative 1e-12 above the budget meets it, 1e-6 above does not
        removed = total_resource(self.full.replace(1, 0, 3), self.table)
        for budget, meets in ((removed * (1 - 1e-12), True), (removed * (1 - 1e-6), False)):
            samples = generate_scd_samples(self.specs, self.table, self.full, budget)
            assert any(s.pairs[1][0] == 0 for s in samples) == meets

    def test_least_shrink_is_chosen_grid_walk(self):
        # oracle: walk the grid and keep the feasible option with max resource
        required = 0.02 * total_resource(self.full, self.table)
        budget = total_resource(self.full, self.table) - required
        samples = generate_scd_samples(self.specs, self.table, self.full, budget)
        for s in samples:
            i = next(j for j, (a, b) in enumerate(zip(s.pairs, self.full.pairs)) if a != b)
            r_got = total_resource(s, self.table)
            feasible = [
                total_resource(self.full.replace(i, *o), self.table)
                for o in shrink_options(self.specs[i], *self.full.pairs[i])
            ]
            best = max(r for r in feasible if r <= budget + 1e-9)
            assert r_got == pytest.approx(best)


class TestMcdScdCapacity:
    def test_mcd_exceeds_scd_when_layers_are_small(self):
        specs = small_specs()
        table = synthetic_latency_table(specs, (6, 6), seed=4)
        full = full_width_choice(specs)
        scd_cap = scd_max_reduction(specs, table, full)
        mcd_cap = mcd_max_reduction(specs, table, full, 3)
        assert mcd_cap > scd_cap

    def test_mcd_l1_matches_scd_candidate_support(self):
        # 2-layer net, L=1: MCD samples must live in the exhaustive single-layer
        # candidate set, and both layers must appear in the support
        specs = [
            LayerSpec(index=0, c=3, t=4, k_max=3, stride=1),
            LayerSpec(index=1, c=4, t=4, k_max=3, stride=1),
        ]
        table = synthetic_latency_table(specs, (6, 6), seed=5)
        full = full_width_choice(specs)
        required = 0.05 * total_resource(full, table)
        budget = total_resource(full, table) - required
        exhaustive = set()
        for i, spec in enumerate(specs):
            for o in shrink_options(spec, *full.pairs[i]):
                cand = full.replace(i, *o)
                if total_resource(cand, table) <= budget + 1e-9:
                    exhaustive.add(cand.key())
        rng = np.random.default_rng(6)
        seen_layers = set()
        for _ in range(200):
            s = generate_mcd_sample(specs, table, full, 1, budget, rng)
            assert s.key() in exhaustive
            seen_layers.add(
                next(i for i, (a, b) in enumerate(zip(s.pairs, full.pairs)) if a != b)
            )
        assert seen_layers == {0, 1}
        for s in generate_scd_samples(specs, table, full, budget):
            assert s.key() in exhaustive


class TestSelection:
    def rec(self, acc, res, it=0, loss=1.0):
        return SampleRecord(it, 0, SubNetChoice(((1, 3),)), res, acc, loss)

    def test_singleton(self):
        r = self.rec(0.5, 10.0)
        assert select_best([r]) is r

    def test_accuracy_wins(self):
        assert select_best([self.rec(0.4, 1.0), self.rec(0.6, 9.0)]).holdout_accuracy == 0.6

    def test_tie_breaks_on_lower_resource(self):
        assert select_best([self.rec(0.5, 10.0), self.rec(0.5, 9.0)]).resource == 9.0

    def test_full_tie_keeps_first(self):
        a, b = self.rec(0.5, 9.0), self.rec(0.5, 9.0)
        assert select_best([a, b]) is a

    def test_equal_accuracy_lower_loss_wins(self):
        # the loss outranks the resource: the cheaper sample loses on its higher loss
        cheap, better = self.rec(0.5, 9.0, loss=0.8), self.rec(0.5, 10.0, loss=0.7)
        assert select_best([cheap, better]) is better
        assert select_best([better, cheap]) is better
        # accuracy still outranks the loss
        assert select_best([self.rec(0.6, 10.0, loss=2.0), better]).holdout_accuracy == 0.6

    def test_nan_loss_ranks_last(self):
        finite = self.rec(0.5, 10.0, loss=3.0)
        assert select_best([self.rec(0.5, 9.0, loss=float("nan")), finite]) is finite

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(7)
        records = [
            self.rec(float(rng.choice([0.2, 0.5, 0.8])), float(rng.integers(1, 20)),
                     loss=float(rng.choice([0.5, 1.0])))
            for _ in range(50)
        ]
        got = select_best(records)
        want = records[0]
        for r in records[1:]:
            if (r.holdout_accuracy, -r.loss, -r.resource) > (
                want.holdout_accuracy, -want.loss, -want.resource
            ):
                want = r
        assert got is want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])


class TestEvaluation:
    def test_repeat_evaluation_identical_and_read_only(self):
        specs = small_specs()
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(8))
        holdout = tiny_holdout(seed=1)
        choice = SubNetChoice(((3, 3), (4, 3), (2, 3)))
        before = hashlib.sha256(
            b"".join(p.value.tobytes() for p in net.parameters())
        ).hexdigest()
        a1 = evaluate_sample(net, choice, holdout)
        a2 = evaluate_sample(net, choice, holdout)
        after = hashlib.sha256(
            b"".join(p.value.tobytes() for p in net.parameters())
        ).hexdigest()
        assert a1 == a2
        assert before == after

    def test_single_item_holdout_in_zero_one(self):
        specs = small_specs()
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(9))
        holdout = tiny_holdout(seed=2)
        holdout.images, holdout.labels = holdout.images[:1], holdout.labels[:1]
        accuracy, loss = evaluate_sample(net, net.full_choice(), holdout)
        assert accuracy in (0.0, 1.0)
        assert loss > 0.0

    def test_batches_sum_to_the_one_batch_score(self, monkeypatch):
        specs = small_specs()
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(11))
        holdout = tiny_holdout(seed=6)
        choice = SubNetChoice(((3, 3), (4, 5), (6, 3)))

        accuracy, loss = evaluate_sample(net, choice, holdout)  # 15 images, one batch
        monkeypatch.setattr(supernet, "EVAL_BATCH_SIZE", 4)
        batched = evaluate_sample(net, choice, holdout)  # 4+4+4+3
        assert batched[0] == accuracy
        assert batched[1] == pytest.approx(loss, rel=1e-6)

    def test_equals_extracted_network_evaluation(self):
        specs = small_specs()
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(10))
        holdout = tiny_holdout(seed=3)
        for pairs in [((3, 3), (0, 3), (6, 3)), ((6, 3), (2, 5), (4, 3))]:
            choice = SubNetChoice(pairs)
            accuracy, loss = evaluate_sample(net, choice, holdout)
            extracted = net.extract(choice)
            assert accuracy == extracted.evaluate(holdout.images, holdout.labels)
            logits = extracted.forward(holdout.images)
            assert loss == pytest.approx(T.softmax_cross_entropy(logits, holdout.labels)[0], rel=1e-6)


class TestPrefixReuse:
    """Each sample runs from where it first differs from the previous best, or from
    the sample before it in its run, on the holdout inputs that one captured."""

    def build(self, layers=3, seed=31):
        specs = six_layer_specs()  # stride 2, bypass, and removable layers
        net = SuperNetwork(specs, (8, 8), 3, rng=np.random.default_rng(seed))
        table = synthetic_latency_table(specs, (8, 8), seed=32)
        holdout = tiny_holdout(seed=33, n_per_class=30, hw=8)  # 90 images: two batches
        r0 = total_resource(net.full_choice(), table)
        cfg = make_config(0.35 * r0, init_reduction=0.08, layers_per_sample=layers)
        return net, table, holdout, cfg

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("optimizer,layers", [("mcd", 2), ("mcd", 3), ("scd", 1)])
    def test_same_bytes_as_evaluating_every_sample_from_layer_0(
        self, monkeypatch, optimizer, layers, jobs
    ):
        net, table, holdout, cfg = self.build(layers)

        def artifacts(result):
            rows = [net.architecture_json(r.choice) for r in result.trajectory]
            return search_log_csv(result.log_rows), search_log_csv(result.trajectory), rows

        cfg = replace(cfg, optimizer=optimizer)
        result = run_search(net, table, cfg, holdout, jobs=jobs)
        shared = 0  # samples that run on layers the sample before them in their run captured
        for it, best in enumerate(r.choice for r in result.trajectory[:-1]):
            unique = [r.choice for r in result.log_rows if r.iteration == it and r.duplicate_of is None]
            heads = {choice.pairs[: first_changed_layer(best, choice) + 1] for choice in unique}
            shared += len(unique) - len(heads)
        assert shared > 0 if optimizer == "mcd" else shared == 0  # SCD changes one layer each
        got = artifacts(result)
        assert got[1].count("\n") >= 2 + 4  # header lines, the initial network, 3 iterations
        full = search.evaluate_sample
        monkeypatch.setattr(
            search, "evaluate_sample",
            lambda supernet, choice, holdout, prefix=None, capture=None:
                full(supernet, choice, holdout, capture=capture),
        )
        assert got == artifacts(run_search(net, table, cfg, holdout, jobs=jobs))

    def test_the_prefix_choice_itself_scores_as_from_layer_0(self):
        net, _, holdout, _ = self.build()
        full = net.full_choice()
        inputs = [None] * len(net.specs)
        evaluate_sample(net, full, holdout, capture=inputs)
        prefix = HoldoutPrefix(full, inputs).moved_to(net, full.replace(2, 4, 3))
        assert evaluate_sample(net, prefix.choice, holdout, prefix) == evaluate_sample(
            net, prefix.choice, holdout
        )

    def test_progress_counts_the_layer_forwards_each_iteration_ran(self):
        net, table, holdout, cfg = self.build()
        lines = []
        result = run_search(net, table, cfg, holdout, progress=lines.append)
        assert len(lines) == len(result.trajectory) - 1 >= 3
        specs, skipped = len(net.specs), 0
        for it, line in enumerate(lines):
            best = result.trajectory[it].choice
            unique = [r.choice for r in result.log_rows if r.iteration == it and r.duplicate_of is None]
            ordered = sorted(unique, key=lambda choice: choice.pairs)
            # a sample starts where it first differs from the sample before it in pairs
            # order if that is past its first changed layer from the best (same run)
            run = sum(
                specs - max(first_changed_layer(best, choice), first_changed_layer(before, choice))
                for before, choice in zip([best, *ordered], ordered)
            )
            assert f"layers run {run}/{len(unique) * specs}," in line
            skipped += len(unique) * specs - run
        assert skipped > 0

    def test_bench_trace_contract(self, monkeypatch):
        # the benchmark's tracer wraps search.evaluate_sample, SuperNetwork.forward_eval
        # and SuperNetwork.extract, and counts one evaluate_sample per unique sample;
        # the search scores samples on the shared tensors and never extracts
        net, table, holdout, cfg = self.build()
        calls, reached = [], set()

        def spy(owner, name, record):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                record(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(search, "evaluate_sample", calls.append)
        spy(SuperNetwork, "forward_eval", lambda args: reached.add("forward_eval"))
        spy(SuperNetwork, "extract", lambda args: reached.add("extract"))
        result = run_search(net, table, cfg, holdout, jobs=2)
        unique = sum(r.duplicate_of is None for r in result.log_rows)
        assert len(calls) == unique + 1
        assert all(len(args) >= 3 and args[2] is holdout for args in calls)
        assert reached == {"forward_eval"}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=random_stack(), data=st.data())
    def test_any_order_of_a_run_scores_as_from_layer_0_on_random_stacks(self, case, data):
        specs, hw, choice, seed = case
        net = SuperNetwork(specs, hw, 3, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        n = data.draw(st.integers(1, 6))
        holdout = Dataset(
            rng.standard_normal((n, specs[0].c, *hw)).astype(np.float32), rng.integers(0, 3, n), 3
        )
        grid_choice = st.tuples(
            *(st.tuples(st.sampled_from(s.width_grid), st.sampled_from(s.kernel_grid)) for s in specs)
        ).map(SubNetChoice)
        further = data.draw(st.lists(grid_choice, min_size=2, max_size=6))
        # unique, as a search's runs are, in any order; then one choice twice in a row
        run = data.draw(st.permutations(list(dict.fromkeys([choice, *further]))))
        j = data.draw(st.integers(0, len(run) - 1))
        run = [*run[: j + 1], *run[j:]]
        full = net.full_choice()
        inputs = [None] * len(specs)
        evaluate_sample(net, full, holdout, capture=inputs)
        scores = evaluate_run(net, run, holdout, HoldoutPrefix(full, inputs))
        assert scores == [evaluate_sample(net, c, holdout) for c in run], (specs, run)


class TestRunSearch:
    def build(self, seed=0):
        specs = six_layer_specs()
        net = SuperNetwork(specs, (8, 8), 3, rng=np.random.default_rng(seed))
        table = synthetic_latency_table(specs, (8, 8), seed=20)
        holdout = tiny_holdout(seed=4, hw=8)
        return net, table, holdout

    def test_contract_on_toy_net(self):
        net, table, holdout = self.build()
        r0 = total_resource(net.full_choice(), table)
        cfg = make_config(0.5 * r0)
        result = run_search(net, table, cfg, holdout)
        resources = [rec.resource for rec in result.trajectory]
        assert all(b < a for a, b in zip(resources, resources[1:]))
        assert resources[-1] <= cfg.target_resource + 1e-9
        assert result.trajectory[0].iteration == -1
        # every logged sample satisfies its iteration's budget
        min_res = total_resource(min_resource_choice(net.specs), table)
        for row in result.log_rows:
            prev = resources[row.iteration]  # trajectory[it] is best of iteration it-1
            budget = iteration_budget(prev, r0, cfg, row.iteration, min_res)
            assert row.resource <= budget + 1e-9
        # J rows per iteration, exactly one chosen per iteration
        iterations = resources and len(resources) - 1
        assert len(result.log_rows) == iterations * cfg.samples_per_iteration
        for it in range(iterations):
            rows = [r for r in result.log_rows if r.iteration == it]
            assert sum(r.chosen for r in rows) == 1
            chosen = next(r for r in rows if r.chosen)
            assert chosen.duplicate_of is None

    def test_rerun_with_same_seed_is_byte_identical(self, tmp_path):
        outputs = []
        for _ in range(2):
            net, table, holdout = self.build(seed=3)
            r0 = total_resource(net.full_choice(), table)
            cfg = make_config(0.5 * r0, seed=21)
            result = run_search(net, table, cfg, holdout)
            log = search_log_csv(result.log_rows)
            path = tmp_path / f"traj_{len(outputs)}.json"
            write_trajectory(path, net, result.trajectory)
            outputs.append((log, path.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_chosen_rows_are_the_trajectory_and_duplicates_copy_their_first(self):
        specs = small_specs()
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(12))
        table = synthetic_latency_table(specs, (6, 6), seed=13)
        holdout = tiny_holdout(seed=5)
        r0 = total_resource(net.full_choice(), table)
        cfg = make_config(0.2 * r0, samples_per_iteration=20, layers_per_sample=3)
        result = run_search(net, table, cfg, holdout)
        rows = {(r.iteration, r.sample_id): r for r in result.log_rows}
        duplicates = [r for r in result.log_rows if r.duplicate_of is not None]
        assert duplicates, "no duplicate sample: the checks below would pass vacuously"
        for i, entry in enumerate(result.trajectory[1:]):
            chosen = [r for r in result.log_rows if r.iteration == i and r.chosen == 1]
            assert len(chosen) == 1 and chosen[0] is entry
            assert entry.duplicate_of is None
        for r in duplicates:
            first = rows[r.iteration, r.duplicate_of]
            assert first.sample_id < r.sample_id and first.duplicate_of is None
            assert first.choice.key() == r.choice.key()
            assert (r.holdout_accuracy, r.loss, r.resource) == (
                first.holdout_accuracy, first.loss, first.resource
            )

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_nonpositive_jobs_rejected(self, jobs):
        net, table, holdout = self.build()
        r0 = total_resource(net.full_choice(), table)
        with pytest.raises(GridError, match="jobs must be >= 1"):
            run_search(net, table, make_config(0.5 * r0), holdout, jobs=jobs)

    def test_target_equal_to_initial_means_zero_iterations(self):
        net, table, holdout = self.build()
        r0 = total_resource(net.full_choice(), table)
        result = run_search(net, table, make_config(r0), holdout)
        assert len(result.trajectory) == 1
        assert result.log_rows == []

    def test_infeasible_target_preflight(self):
        net, table, holdout = self.build()
        min_res = total_resource(min_resource_choice(net.specs), table)
        with pytest.raises(InfeasibleTargetError):
            run_search(net, table, make_config(min_res * 0.5), holdout)

    def test_weights_untouched_by_search(self):
        net, table, holdout = self.build()
        before = {p.name: p.value.copy() for p in net.parameters()}
        r0 = total_resource(net.full_choice(), table)
        run_search(net, table, make_config(0.7 * r0), holdout)
        for p in net.parameters():
            np.testing.assert_array_equal(p.value, before[p.name])

    def test_parallel_evaluation_matches_serial(self):
        net, table, holdout = self.build(seed=5)
        r0 = total_resource(net.full_choice(), table)
        cfg = make_config(0.6 * r0, seed=22)
        serial = run_search(net, table, cfg, holdout, jobs=1)
        parallel = run_search(net, table, cfg, holdout, jobs=4)
        assert search_log_csv(serial.log_rows) == search_log_csv(parallel.log_rows)

    def test_scd_search_also_terminates(self):
        net, table, holdout = self.build(seed=6)
        r0 = total_resource(net.full_choice(), table)
        cfg = make_config(0.8 * r0, seed=23)
        result = run_search(net, table, replace(cfg, optimizer="scd"), holdout)
        assert result.trajectory[-1].resource <= cfg.target_resource + 1e-9

    def test_scd_rows_meet_the_budget_worked_out_by_hand(self):
        net, table, holdout = self.build(seed=6)
        r0 = total_resource(net.full_choice(), table)
        cfg = replace(make_config(0.5 * r0, seed=23), optimizer="scd")
        result = run_search(net, table, cfg, holdout)
        floor = total_resource(min_resource_choice(net.specs), table)
        resources = [rec.resource for rec in result.trajectory]
        assert len(resources) > 3
        for row in result.log_rows:
            cut = r0 * cfg.init_reduction * cfg.decay**row.iteration
            budget = max(resources[row.iteration] - cut, floor)
            assert row.resource <= budget + 1e-9 * budget

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("optimizer", ["mcd", "scd"])
    def test_a_higher_target_stops_on_a_prefix_of_a_lower_ones_search(self, optimizer, jobs):
        # the target only stops the loop: no draw and no budget depends on it
        rows = [(3, 8, 5, 1), (8, 8, 3, 1), (8, 8, 3, 2), (8, 8, 3, 1)]  # (C, T, k, stride)
        specs = [LayerSpec(i, c, t, k, s) for i, (c, t, k, s) in enumerate(rows)]
        net = SuperNetwork(specs, (8, 8), 3, rng=np.random.default_rng(7))
        table = synthetic_latency_table(specs, (8, 8), seed=7)
        holdout = tiny_holdout(seed=7, hw=8)
        cfg = SearchConfig(
            samples_per_iteration=10, layers_per_sample=2, init_reduction=0.03, decay=1.0,
            target_fraction=0.5, optimizer=optimizer, seed=5,
        )
        low = run_search(net, table, cfg, holdout, jobs=jobs)
        high = run_search(net, table, replace(cfg, target_fraction=0.8), holdout, jobs=jobs)
        assert 1 < len(high.trajectory) < len(low.trajectory)
        assert high.trajectory == low.trajectory[: len(high.trajectory)]
        assert high.log_rows == low.log_rows[: len(high.log_rows)]

    def test_trajectory_file_round_trip(self, tmp_path):
        net, table, holdout = self.build(seed=7)
        r0 = total_resource(net.full_choice(), table)
        result = run_search(net, table, make_config(0.7 * r0, seed=24), holdout)
        path = tmp_path / "trajectory.json"
        write_trajectory(path, net, result.trajectory)
        choices = load_trajectory_choices(path, net)
        assert [c.key() for c in choices] == [r.choice.key() for r in result.trajectory]

    @pytest.mark.parametrize(
        "payload,field",
        [
            ('{"kind": "conv"}', "must be a list, got dict"),
            ("[]", "must be a non-empty list"),
            ('[{"kind": "conv"}]', "entry 0: must be a list, got dict"),
            (
                '[[{"kind": "conv", "M": 6, "k": 3}, {"kind": "conv", "M": 0, "k": 0}, '
                '{"kind": "conv", "M": 6, "k": 3}], [{"M": 6}]]',
                "entry 1 row 0: field 'kind'",
            ),
            ("[[", "not valid JSON at offset 2"),
            ("[" * 100_000 + "]" * 100_000, "nests JSON arrays or objects too deeply"),
            (
                trajectory_text([(4, 3), (6, 5), (6, 3)], [(6, 3), (6, 5), (6, 3)]),
                re.escape("entry 1: layer 0: (6,3) does not shrink entry 0's (4,3)"),
            ),
            (
                trajectory_text(
                    [(6, 3), (6, 5), (6, 3)], [(6, 3), (0, 3), (6, 3)], [(6, 3), (2, 3), (6, 3)]
                ),
                re.escape("entry 2: layer 1: (2,3) does not shrink entry 1's (0,3)"),
            ),
            (
                trajectory_text(
                    [(6, 3), (6, 5), (6, 3)], [(6, 3), (4, 3), (6, 3)], [(6, 3), (4, 5), (6, 3)]
                ),
                re.escape("entry 2: layer 1: (4,5) does not shrink entry 1's (4,3)"),
            ),
        ],
        ids=[
            "object", "empty", "entry-object", "row-kind", "truncated", "deep",
            "width-grows", "removed-layer-returns", "kernel-grows",
        ],
    )
    def test_malformed_trajectory_names_path_entry_and_field(self, tmp_path, payload, field):
        path = tmp_path / "trajectory.json"
        path.write_text(payload)
        net = SuperNetwork(small_specs(), (6, 6), 3)
        with pytest.raises(ParseError, match=field) as info:
            load_trajectory_choices(path, net)
        assert str(path) in str(info.value)


def check_isolation_every_step(net):
    """Make each backward of `net` assert that no gradient reaches a filter past
    its layer's batch-max width; returns the list of widths checked, one per step."""
    forward_train, backward = net.forward_train, net.backward
    batch_widths, checked = [], []

    def recording_forward(x, widths, kernels):
        batch_widths[:] = [np.asarray(widths)]
        return forward_train(x, widths, kernels)

    def checked_backward(dlogits):
        backward(dlogits)
        (widths,) = batch_widths
        for li in range(len(net.specs)):
            cap = int(widths[:, li].max())
            assert np.all(net.weights[li].grad[cap:] == 0.0), f"layer {li} leaked past {cap}"
            assert np.all(net.biases[li].grad[cap:] == 0.0), f"layer {li} bias leaked past {cap}"
        checked.append(widths)

    net.forward_train, net.backward = recording_forward, checked_backward
    return checked


class TestTraining:
    def separable_data(self, seed=0):
        ds = synth_classification(3, 40, 6, 6, seed=seed, noise=0.15)
        return three_way_split(ds, holdout_fraction=0.15, test_fraction=0.15, seed=seed)

    def test_degenerate_width_grid_is_ordinary_training(self):
        specs = [
            LayerSpec(index=0, c=3, t=6, k_max=3, stride=1, width_grid=(6,)),
            LayerSpec(index=1, c=6, t=6, k_max=3, stride=1, width_grid=(6,)),
        ]
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(12))
        train, holdout, _ = self.separable_data(seed=9)
        checked = check_isolation_every_step(net)
        history = train_supernetwork(
            net, train, TrainingConfig(epochs=3, batch_size=16), np.random.default_rng(0),
            holdout=holdout,
        )
        assert history[-1]["loss"] < history[0]["loss"]
        assert len(checked) == 3 * -(-len(train) // 16)

    def test_gradient_isolation_holds_every_step(self):
        specs = small_specs()
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(13))
        train, _, _ = self.separable_data(seed=10)
        checked = check_isolation_every_step(net)
        # batches of 4 over 7-point width grids: the batch-max width is often below T
        train_supernetwork(
            net, train, TrainingConfig(epochs=2, batch_size=4), np.random.default_rng(1)
        )
        assert len(checked) == 2 * -(-len(train) // 4)
        assert sum(int(w.max(axis=0).min() < 6) for w in checked) > len(checked) // 2

    def test_separable_task_reaches_high_full_width_accuracy(self):
        specs = small_specs()
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(14))
        train, holdout, test = self.separable_data(seed=11)
        train_supernetwork(
            net, train, TrainingConfig(epochs=25, batch_size=16, learning_rate=0.08),
            np.random.default_rng(2), holdout=holdout,
        )
        acc = net.evaluate(test.images, test.labels, net.full_choice())
        assert acc >= 0.9

    @pytest.mark.parametrize("epochs, scored", [
        (1, [0]), (2, [0, 1]), (3, [0, 1, 2]), (5, [0, 1, 3, 4]), (24, [0, 8, 15, 23]),
        (50, [0, 16, 33, 49]),
    ])
    def test_holdout_is_scored_at_four_epochs_and_changes_nothing_else(self, epochs, scored):
        runs = []
        for holdout_split in (True, False):
            net = SuperNetwork(small_specs(), (6, 6), 3, rng=np.random.default_rng(16))
            train, holdout, _ = self.separable_data(seed=13)
            history = train_supernetwork(
                net, train, TrainingConfig(epochs=epochs, batch_size=32),
                np.random.default_rng(6), holdout=holdout if holdout_split else None,
            )
            runs.append((history, np.concatenate([p.value.ravel() for p in net.parameters()])))
        (with_holdout, params), (without, plain_params) = runs
        accuracies = {r["epoch"]: r["holdout_accuracy"] for r in with_holdout if "holdout_accuracy" in r}
        assert sorted(accuracies) == scored
        assert all(0.0 <= a <= 1.0 for a in accuracies.values())
        assert [r["loss"] for r in with_holdout] == [r["loss"] for r in without]
        assert all(r.keys() == {"epoch", "loss"} for r in without)
        np.testing.assert_array_equal(params, plain_params)

    def test_one_step_calls_each_traced_kernel_once_per_layer(self, monkeypatch):
        # the benchmark's tracer wraps these module attributes; a training step that
        # reached the kernels another way would leave its per-layer metrics blind
        calls = {}
        for name in ("conv2d_forward", "conv2d_backward", "sgd_step"):
            def counting(*args, _kernel=getattr(T, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(T, name, counting)
        specs = small_specs()
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(17))
        train, _, _ = self.separable_data(seed=14)
        one_step = {"conv2d_forward": len(specs), "conv2d_backward": len(specs), "sgd_step": 1}
        one_batch = TrainingConfig(epochs=1, batch_size=len(train))
        train_supernetwork(net, train, one_batch, np.random.default_rng(4))
        assert calls == one_step
        calls.clear()
        sub = net.extract(net.full_choice())
        train_subnetwork(sub, train, 1, np.random.default_rng(5), one_batch)
        assert calls == one_step

    def test_each_epoch_steps_at_its_decayed_rate(self, monkeypatch):
        rates = []
        sgd_step = T.sgd_step

        def spy(params, lr, weight_decay=0.0):
            rates.append(lr)
            sgd_step(params, lr, weight_decay)

        monkeypatch.setattr(T, "sgd_step", spy)
        net = SuperNetwork(small_specs(), (6, 6), 3, rng=np.random.default_rng(17))
        train, _, _ = self.separable_data(seed=14)
        config = TrainingConfig(epochs=3, batch_size=len(train), learning_rate=0.1, lr_decay=0.5)
        train_supernetwork(net, train, config, np.random.default_rng(4))
        assert rates == [0.1, 0.1 * 0.5, 0.1 * 0.25]

    @pytest.mark.parametrize("size", range(1, 10))
    def test_kernel_draw_is_the_rng_choice_stream(self, size):
        # train_supernetwork draws each layer's kernel as grid[rng.integers(len(grid))];
        # it must draw what rng.choice(grid) draws, or seeded artifacts would move
        grid = tuple(range(3, 3 + 2 * size, 2))
        a, b = np.random.default_rng(size), np.random.default_rng(size)
        assert [int(a.choice(grid)) for _ in range(2000)] == [
            grid[b.integers(len(grid))] for _ in range(2000)
        ]
        assert a.random() == b.random()

    def test_same_seed_same_weights(self):
        results = []
        for _ in range(2):
            specs = small_specs()
            net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(15))
            train, _, _ = self.separable_data(seed=12)
            train_supernetwork(
                net, train, TrainingConfig(epochs=2, batch_size=16), np.random.default_rng(3)
            )
            results.append(np.concatenate([p.value.ravel() for p in net.parameters()]))
        np.testing.assert_array_equal(results[0], results[1])


class TestReplay:
    def test_length_one_trajectory_equals_plain_training(self):
        specs = small_specs()
        train, _, _ = TestTraining().separable_data(seed=13)
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(16))
        training = TrainingConfig(batch_size=16)
        replayed = trajectory_replay_finetune(
            net, [net.full_choice()], train, np.random.default_rng(4), training,
            DiscoveredConfig(epochs=3, replay_epochs_per_step=2),
        )
        plain = net.extract(net.full_choice())
        train_subnetwork(plain, train, 3, np.random.default_rng(4), training)
        for a, b in zip(replayed.parameters(), plain.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_replay_walks_and_shrinks(self):
        specs = small_specs()
        train, _, _ = TestTraining().separable_data(seed=14)
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(17))
        choices = [
            net.full_choice(),
            SubNetChoice(((5, 3), (6, 5), (6, 3))),
            SubNetChoice(((5, 3), (4, 3), (3, 3))),
        ]
        final = trajectory_replay_finetune(
            net, choices, train, np.random.default_rng(5), TrainingConfig(batch_size=16),
            DiscoveredConfig(epochs=1, replay_epochs_per_step=1),
        )
        assert final.choice.key() == choices[-1].key()
        x = train.images[:4]
        assert final.forward(x).shape == (4, 3)

    def test_replay_is_the_hand_written_walk_bit_for_bit(self):
        specs = small_specs()
        train, _, _ = TestTraining().separable_data(seed=14)
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(17))
        choices = [
            net.full_choice(),
            SubNetChoice(((5, 3), (6, 5), (6, 3))),
            SubNetChoice(((5, 3), (4, 3), (3, 3))),
        ]
        training = TrainingConfig(batch_size=16)
        discovered = DiscoveredConfig(epochs=2, replay_epochs_per_step=1)
        replayed = trajectory_replay_finetune(
            net, choices, train, np.random.default_rng(5), training, discovered
        )
        rng = np.random.default_rng(5)
        walk = net.extract(choices[0])
        for choice in choices[1:]:
            walk = walk.shrink_to(choice)
            train_subnetwork(walk, train, discovered.replay_epochs_per_step, rng, training)
        train_subnetwork(walk, train, discovered.epochs, rng, training)
        assert replayed.choice == walk.choice
        for a, b in zip(replayed.parameters(), walk.parameters(), strict=True):
            assert a.name == b.name and a.value.tobytes() == b.value.tobytes(), a.name


class TestLogFormat:
    def test_csv_shape_and_version_line(self):
        rows = [
            SampleRecord(0, 0, SubNetChoice(((1, 3),)), 3.25, 0.5, 0.75, chosen=1),
            SampleRecord(0, 1, SubNetChoice(((1, 3),)), 3.0, 0.5, 0.75, duplicate_of=0),
        ]
        text = search_log_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "# netshrink-search-log-v2"
        assert lines[1] == "iteration,sample_id,resource,accuracy,loss,chosen,duplicate_of"
        assert lines[2] == "0,0,3.25,0.5,0.75,1,"
        assert lines[3] == "0,1,3.0,0.5,0.75,0,0"
        # nan, an integral float, and numpy floats all print as Python floats
        one = SubNetChoice(((1, 3),))
        rows = [
            SampleRecord(1, 0, one, 25920.0, 0.5, float("nan")),
            SampleRecord(1, 1, one, np.float64(0.1), np.float64(1.0), np.float64(2.5), chosen=1),
            SampleRecord(1, 2, one, np.float32(0.1), np.float32(0.5), np.float32(1.25), duplicate_of=1),
        ]
        assert search_log_csv(rows).split("\n")[2:] == [
            "1,0,25920.0,0.5,nan,0,",
            "1,1,0.1,1.0,2.5,1,",
            "1,2,0.10000000149011612,0.5,1.25,0,1",
            "",
        ]
        # a training-curve epoch without a holdout accuracy ends in an empty cell
        curve = [(np.int64(0), np.float32(0.75), None), (1, 0.5, np.float64(0.875))]
        assert tagged_csv("netshrink-training-curve-v1", ("epoch", "loss", "holdout_accuracy"), curve) == (
            "# netshrink-training-curve-v1\nepoch,loss,holdout_accuracy\n0,0.75,\n1,0.5,0.875\n"
        )
