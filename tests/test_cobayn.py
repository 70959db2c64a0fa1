"""Tests for the COBAYN compiler autotuner and its Bayesian network."""

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.cobayn.autotuner import CobaynAutotuner
from repro.cobayn.bn import (
    BayesError,
    DiscreteBayesianNetwork,
    NodeSpec,
    learn_structure,
)
from repro.cobayn.corpus import (
    assignment_to_config,
    build_corpus,
    flag_assignment,
)
from repro.cobayn.discretize import Discretizer
from repro.engine.core import EvaluationEngine
from repro.gcc.flags import ALL_FLAGS, FlagConfiguration, OptLevel, cobayn_space
from repro.milepost.features import extract_features
from repro.polybench.suite import all_apps, load

#: Per leave-one-out tuner, as the row-wise structure search learned them:
#: edges, a SHA-256 of the CPT bytes in node order, and the top-4 labels.
LOO_TUNERS = Path(__file__).parent / "data" / "cobayn_loo_tuners.json"


def rain_network():
    """The classic sprinkler network for inference sanity checks."""
    network = DiscreteBayesianNetwork(
        [NodeSpec("rain", 2), NodeSpec("sprinkler", 2), NodeSpec("wet", 2)]
    )
    network.add_edge("rain", "sprinkler")
    network.add_edge("rain", "wet")
    network.add_edge("sprinkler", "wet")
    return network


def rain_data(rng, count=4000):
    rows = []
    for _ in range(count):
        rain = rng.random() < 0.2
        sprinkler = rng.random() < (0.01 if rain else 0.4)
        p_wet = 0.99 if (rain and sprinkler) else 0.9 if rain else 0.85 if sprinkler else 0.02
        wet = rng.random() < p_wet
        rows.append({"rain": int(rain), "sprinkler": int(sprinkler), "wet": int(wet)})
    return rows


class TestBayesianNetwork:
    def test_node_cardinality_validation(self):
        with pytest.raises(ValueError):
            NodeSpec("x", 1)

    def test_duplicate_node_rejected(self):
        with pytest.raises(BayesError):
            DiscreteBayesianNetwork([NodeSpec("a", 2), NodeSpec("a", 2)])

    def test_cycle_rejected(self):
        network = DiscreteBayesianNetwork([NodeSpec("a", 2), NodeSpec("b", 2)])
        network.add_edge("a", "b")
        with pytest.raises(BayesError):
            network.add_edge("b", "a")

    def test_self_loop_rejected(self):
        network = DiscreteBayesianNetwork([NodeSpec("a", 2)])
        with pytest.raises(BayesError):
            network.add_edge("a", "a")

    def test_topological_order(self):
        network = rain_network()
        order = network.topological_order()
        assert order.index("rain") < order.index("sprinkler") < order.index("wet")

    def test_cpt_rows_sum_to_one(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(0)))
        for node in network.node_names:
            np.testing.assert_allclose(network.cpt(node).sum(axis=1), 1.0)

    def test_joint_probabilities_sum_to_one(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(0)))
        total = sum(
            network.probability({"rain": r, "sprinkler": s, "wet": w})
            for r in (0, 1)
            for s in (0, 1)
            for w in (0, 1)
        )
        assert total == pytest.approx(1.0)

    def test_posterior_matches_generator(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(1), count=8000))
        # P(rain | wet) should be much higher than P(rain)
        prior = network.posterior({"rain": 1})
        posterior = network.posterior({"rain": 1}, {"wet": 1})
        assert prior == pytest.approx(0.2, abs=0.05)
        assert posterior > prior + 0.1

    def test_posterior_conflicting_evidence_zero(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(0)))
        assert network.posterior({"rain": 1}, {"rain": 0}) == 0.0

    def test_unfitted_network_raises(self):
        network = rain_network()
        with pytest.raises(BayesError):
            network.probability({"rain": 0, "sprinkler": 0, "wet": 0})

    def test_sampling_respects_distribution(self):
        network = rain_network()
        network.fit(rain_data(np.random.default_rng(2), count=8000))
        samples = network.sample(np.random.default_rng(3), count=4000)
        rain_rate = sum(s["rain"] for s in samples) / len(samples)
        assert rain_rate == pytest.approx(0.2, abs=0.04)

    def test_laplace_smoothing_keeps_positive(self):
        network = DiscreteBayesianNetwork([NodeSpec("a", 2)])
        network.fit([{"a": 0}] * 10)  # never saw a=1
        assert network.probability({"a": 1}) > 0.0

    def test_structure_learning_recovers_dependency(self):
        rng = np.random.default_rng(4)
        rows = rain_data(rng, count=3000)
        nodes = [NodeSpec("rain", 2), NodeSpec("sprinkler", 2), NodeSpec("wet", 2)]
        network = learn_structure(nodes, rows, max_parents=2)
        # wet depends strongly on rain: some edge must touch wet
        assert any("wet" in edge for edge in network.edges())

    def test_bic_penalizes_spurious_edges(self):
        rng = np.random.default_rng(5)
        rows = [
            {"a": int(rng.random() < 0.5), "b": int(rng.random() < 0.5)}
            for _ in range(2000)
        ]
        nodes = [NodeSpec("a", 2), NodeSpec("b", 2)]
        network = learn_structure(nodes, rows)
        assert network.edges() == []  # independent variables stay unlinked

    def test_remove_edge(self):
        network = rain_network()
        network.remove_edge("rain", "wet")
        assert ("rain", "wet") not in network.edges()


def row_wise_bic(network, rows, alpha):
    """The original BIC: refit every CPT row by row, then sum the joint
    log-probability of every row, less the whole-network penalty."""
    cpts = {}
    for node in network.node_names:
        parents = network.parents(node)
        cards = [network.cardinality(parent) for parent in parents]
        counts = np.full(
            (int(np.prod(cards)) if parents else 1, network.cardinality(node)), alpha
        )
        for row in rows:
            index = 0
            for parent, card in zip(parents, cards):
                index = index * card + row[parent]
            counts[index, row[node]] += 1.0
        cpts[node] = counts / counts.sum(axis=1, keepdims=True)
    log_likelihood = 0.0
    for row in rows:
        for node in network.node_names:
            index = 0
            for parent in network.parents(node):
                index = index * network.cardinality(parent) + row[parent]
            log_likelihood += math.log(cpts[node][index, row[node]])
    parameters = sum(
        int(np.prod([network.cardinality(p) for p in network.parents(node)]))
        * (network.cardinality(node) - 1)
        for node in network.node_names
    )
    return log_likelihood - 0.5 * parameters * math.log(max(2, len(rows)))


class TestFamilyBic:
    NAMES = ("rain", "sprinkler", "wet")

    def structures(self):
        """Every DAG over the three sprinkler variables."""
        edges = [(a, b) for a in self.NAMES for b in self.NAMES if a != b]
        for count in range(len(edges) + 1):
            for chosen in itertools.combinations(edges, count):
                network = DiscreteBayesianNetwork([NodeSpec(n, 2) for n in self.NAMES])
                try:
                    for parent, child in chosen:
                        network.add_edge(parent, child)
                except BayesError:
                    continue
                yield network

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_matches_row_wise_definition(self, alpha):
        rows = rain_data(np.random.default_rng(0))
        structures = list(self.structures())
        assert len(structures) == 25  # labelled DAGs on three nodes
        for network in structures:
            assert abs(network.bic_score(rows, alpha) - row_wise_bic(network, rows, alpha)) <= 1e-9

    def test_scoring_leaves_parameters_alone(self):
        network = rain_network()
        network.bic_score(rain_data(np.random.default_rng(0)))
        with pytest.raises(BayesError):
            network.cpt("rain")


class TestLeaveOneOutExactness:
    """The per-family structure search reproduces the row-wise one
    exactly: same edges, bit-identical CPTs, same top-4 and
    bit-identical posteriors of all 128 combinations for all 12
    leave-one-out tuners."""

    @pytest.fixture(scope="class")
    def tuners(self):
        engine = EvaluationEngine()
        apps = all_apps()
        tuners = {}
        for app in apps:
            training = [other for other in apps if other.name != app.name]
            corpus = build_corpus(training, engine)
            tuner = CobaynAutotuner()
            tuner.train(corpus)
            tuners[app.name] = (tuner, engine.features(app))
        return tuners

    def test_matches_seed_tuners(self, tuners):
        expected = json.loads(LOO_TUNERS.read_text())
        assert sorted(tuners) == sorted(expected)
        for name, (tuner, features) in tuners.items():
            network = tuner.network
            digest = hashlib.sha256()
            for node in network.node_names:
                digest.update(network.cpt(node).tobytes())
            seed = expected[name]
            assert [f"{p} -> {c}" for p, c in network.edges()] == seed["edges"], name
            assert digest.hexdigest() == seed["cpt_sha256"], name
            prediction = tuner.predict(features)
            assert [c.label for c in prediction.top(4)] == seed["top4"], name
            posterior_of = {config.label: p for config, p in prediction.ranked}
            posteriors = np.array(
                [posterior_of[config.label] for config in cobayn_space()], dtype=np.float64
            )
            assert hashlib.sha256(posteriors.tobytes()).hexdigest() == seed["posteriors_sha256"], name

    def test_predict_enumerates_the_evidence_marginal_once(self, tuners, monkeypatch):
        """One prediction costs 128 numerators plus one 128-term evidence
        marginal: 256 joint evaluations, not 128 x 129."""
        tuner, features = tuners["2mm"]
        calls = []
        probability = DiscreteBayesianNetwork.probability

        def counted(network, row):
            calls.append(1)
            return probability(network, row)

        monkeypatch.setattr(DiscreteBayesianNetwork, "probability", counted)
        tuner.predict(features)
        assert len(calls) == 2 * len(cobayn_space()) == 256


class TestFlagEncoding:
    def test_round_trip_all_combinations(self):
        for config in cobayn_space():
            assert assignment_to_config(flag_assignment(config)) == config

    def test_level_encoding(self):
        o2 = FlagConfiguration(OptLevel.O2)
        o3 = FlagConfiguration(OptLevel.O3)
        assert flag_assignment(o2)["level"] == 0
        assert flag_assignment(o3)["level"] == 1

    def test_flag_variables_binary(self):
        row = flag_assignment(cobayn_space()[77])
        assert set(row.values()) <= {0, 1}
        assert len(row) == 1 + len(ALL_FLAGS)


class TestDiscretizer:
    def test_selects_informative_features(self, corpus):
        discretizer = Discretizer.fit(corpus.feature_vectors(), bins=3, top_k=6)
        assert len(discretizer.feature_names) == 6
        # the selected features must actually separate the kernels
        binned = [
            tuple(discretizer.transform(vector).values())
            for vector in corpus.feature_vectors()
        ]
        assert len(set(binned)) >= 6

    def test_transform_levels_in_range(self, corpus):
        discretizer = Discretizer.fit(corpus.feature_vectors(), bins=3, top_k=8)
        for vector in corpus.feature_vectors():
            for name, level in discretizer.transform(vector).items():
                assert 0 <= level < discretizer.cardinality(name)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Discretizer.fit([])

    def test_rejects_single_bin(self, corpus):
        with pytest.raises(ValueError):
            Discretizer.fit(corpus.feature_vectors(), bins=1)


class TestCorpus:
    def test_corpus_covers_all_apps(self, corpus):
        assert len(corpus.examples) == 12

    def test_good_configs_are_actually_good(self, corpus):
        for example in corpus.examples:
            times = dict(
                (config, time) for config, time in example.timings
            )
            best_time = min(times.values())
            for config in example.good_configs:
                assert times[config] <= best_time * 1.35

    def test_timings_complete(self, corpus):
        for example in corpus.examples:
            assert len(example.timings) == 128

    def test_rows_contain_features_and_flags(self, corpus):
        discretizer = Discretizer.fit(corpus.feature_vectors(), bins=3, top_k=4)
        rows = corpus.rows(discretizer)
        assert rows
        sample = rows[0]
        assert "level" in sample
        assert any(name.startswith("ft") for name in sample)

    def test_good_fraction_validation(self, apps):
        with pytest.raises(ValueError):
            build_corpus(apps[:1], EvaluationEngine(), good_fraction=0.0)

    def test_without_plans_the_space_is_untouched(self):
        app = load("mvt")
        corpus = build_corpus([app], EvaluationEngine())
        (example,) = corpus.examples
        assert len(example.timings) == 128


class TestAutotuner:
    @pytest.fixture(scope="class")
    def trained(self, corpus):
        tuner = CobaynAutotuner()
        tuner.train(corpus)
        return tuner

    def test_untrained_raises(self):
        tuner = CobaynAutotuner()
        with pytest.raises(RuntimeError):
            tuner.network

    def test_train_on_empty_corpus_raises(self):
        from repro.cobayn.corpus import TrainingCorpus

        tuner = CobaynAutotuner()
        with pytest.raises(ValueError):
            tuner.train(TrainingCorpus())

    def test_prediction_returns_k_unique_configs(self, trained, two_mm):
        features = extract_features(two_mm.parse(), "kernel_2mm")
        top = trained.predict_top(features, 4)
        assert len(top) == 4
        assert len(set(top)) == 4

    def test_prediction_probabilities_descend(self, trained, two_mm):
        features = extract_features(two_mm.parse(), "kernel_2mm")
        prediction = trained.predict(features)
        probabilities = [p for _, p in prediction.ranked]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_posteriors_normalize_over_space(self, trained, two_mm):
        features = extract_features(two_mm.parse(), "kernel_2mm")
        prediction = trained.predict(features)
        assert sum(p for _, p in prediction.ranked) == pytest.approx(1.0, abs=1e-6)

    def test_top_rejects_k_below_one(self, trained, two_mm):
        prediction = trained.predict(extract_features(two_mm.parse(), "kernel_2mm"))
        assert prediction.top(128) == [config for config, _ in prediction.ranked]
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                prediction.top(k)

    def test_leave_one_out_prunes_well(self, apps, compiler, executor, omp):
        """Core COBAYN claim: predicted configs sit near the true top."""
        from repro.machine.openmp import BindingPolicy
        from repro.polybench.workload import profile_kernel

        target = load("3mm")
        train = [app for app in apps if app.name != "3mm"]
        corpus = build_corpus(train, EvaluationEngine())
        tuner = CobaynAutotuner()
        tuner.train(corpus)
        features = extract_features(target.parse(), target.kernels[0])
        predicted = tuner.predict_top(features, 4)

        placement = omp.place(16, BindingPolicy.CLOSE)
        profile = profile_kernel(target)
        truth = sorted(
            cobayn_space(),
            key=lambda config: executor.evaluate(
                compiler.compile(profile, config), placement
            ).time_s,
        )
        ranks = [truth.index(config) for config in predicted]
        assert min(ranks) < 16  # at least one prediction in the true top-12%
        assert sum(ranks) / len(ranks) < 48  # and the set beats random (mean 64)


class TestLoocvEvaluation:
    def test_report_over_three_apps(self):
        from repro.cobayn.evaluation import loocv_report

        apps = [load("mvt"), load("atax"), load("gemver")]
        report = loocv_report(apps, EvaluationEngine(), k=3)
        assert len(report.entries) == 3
        assert report.k == 3 and report.space_size == 128
        for entry in report.entries:
            assert len(entry.predicted_ranks) == 3
            assert all(0 <= rank < 128 for rank in entry.predicted_ranks)
            assert entry.speedup_vs_o3 > 0
        table = report.to_table()
        assert "mvt" in table and "random k-subset" in table
        assert report.mean_rank < report.random_baseline_mean_rank()

    def test_needs_three_apps(self):
        from repro.cobayn.evaluation import loocv_report

        with pytest.raises(ValueError):
            loocv_report([load("mvt")], EvaluationEngine())

    def test_reference_team_fits_a_small_machine(self):
        """The truth ranking uses the corpus's reference team, capped at
        the machine's 8 logical CPUs on biglittle_4p4e."""
        from repro.cobayn.evaluation import loocv_report

        apps = [load("2mm"), load("3mm"), load("atax")]
        engine = EvaluationEngine("biglittle_4p4e")
        report = loocv_report(apps, engine, k=2)
        assert [entry.app for entry in report.entries] == ["2mm", "3mm", "atax"]
        for entry in report.entries:
            assert len(entry.predicted_ranks) == 2
            assert all(0 <= rank < 128 for rank in entry.predicted_ranks)
        # the truths are the corpus's own: no reference point is new
        assert engine.counters.truth_misses == 3 * 128
