"""Tests for the iterative Rejecto detector."""

import random

from repro.core import (
    AugmentedSocialGraph,
    Rejecto,
    RejectoConfig,
    RejectoResult,
    DetectedGroup,
)


def two_group_spam_graph(seed=5):
    """60 legit users plus two disjoint fake groups with different
    acceptance rates (10% and 30%), to exercise iterative rounds."""
    rng = random.Random(seed)
    n_legit = 60
    graph = AugmentedSocialGraph(n_legit)
    for u in range(n_legit):
        for _ in range(4):
            v = rng.randrange(n_legit)
            if v != u:
                graph.add_friendship(u, v)

    def add_group(size, accepted, rejected):
        members = graph.add_nodes(size)
        for i, f in enumerate(members):
            graph.add_friendship(f, members[(i + 1) % size])
        for f in members:
            targets = rng.sample(range(n_legit), accepted + rejected)
            for t in targets[:accepted]:
                graph.add_friendship(f, t)
            for t in targets[accepted:]:
                graph.add_rejection(t, f)
        return members

    group_a = add_group(12, accepted=1, rejected=9)  # AC = 0.1
    group_b = add_group(12, accepted=3, rejected=7)  # AC = 0.3
    return graph, group_a, group_b


class TestRejectoDetect:
    def test_detects_both_groups_in_rate_order(self):
        graph, group_a, group_b = two_group_spam_graph()
        config = RejectoConfig(estimated_spammers=24)
        result = Rejecto(config).detect(graph)
        detected = set(result.detected())
        assert detected >= set(group_a)
        assert detected >= set(group_b)
        # Groups come out in non-decreasing acceptance-rate order (§IV-E).
        rates = [g.acceptance_rate for g in result.groups]
        assert rates == sorted(rates)

    def test_estimated_spammers_termination(self):
        graph, group_a, group_b = two_group_spam_graph()
        config = RejectoConfig(estimated_spammers=12)
        result = Rejecto(config).detect(graph)
        assert result.termination == "estimated_spammers"
        assert result.total_detected >= 12
        # The first (lowest-rate) group is the 10%-acceptance one.
        assert set(result.groups[0].members) == set(group_a)

    def test_acceptance_threshold_termination(self):
        graph, group_a, group_b = two_group_spam_graph()
        # Threshold between the two groups' rates: only group A detected.
        config = RejectoConfig(acceptance_threshold=0.2)
        result = Rejecto(config).detect(graph)
        assert result.termination == "acceptance_threshold"
        detected = result.detected_set()
        assert detected >= set(group_a)
        assert not detected & set(group_b)

    def test_max_rounds_cap(self):
        graph, _, _ = two_group_spam_graph()
        config = RejectoConfig(max_rounds=1)
        result = Rejecto(config).detect(graph)
        assert result.rounds_run == 1

    def test_clean_graph_detects_nothing(self):
        rng = random.Random(0)
        graph = AugmentedSocialGraph(40)
        for u in range(40):
            for _ in range(3):
                v = rng.randrange(40)
                if v != u:
                    graph.add_friendship(u, v)
        result = Rejecto(RejectoConfig()).detect(graph)
        assert result.total_detected == 0
        assert result.termination == "no_cut"

    def test_empty_graph(self):
        result = Rejecto(RejectoConfig()).detect(AugmentedSocialGraph(0))
        assert result.total_detected == 0

    def test_detected_limit_trims_weakest_evidence_last(self):
        graph, group_a, _ = two_group_spam_graph()
        result = Rejecto(RejectoConfig(estimated_spammers=24)).detect(graph)
        full = result.detected()
        limited = result.detected(limit=10)
        assert limited == full[:10]
        # Within the first group, members are ordered by in-rejection count.
        first = result.groups[0].members
        evidence = [len(graph.rej_in[u]) for u in first]
        assert evidence == sorted(evidence, reverse=True)

    def test_legit_seeds_survive_all_rounds(self):
        graph, group_a, group_b = two_group_spam_graph()
        seeds = [0, 1, 2]
        result = Rejecto(RejectoConfig(estimated_spammers=24)).detect(
            graph, legit_seeds=seeds
        )
        assert not result.detected_set() & set(seeds)

    def test_spammer_seeds_guide_detection(self):
        graph, group_a, group_b = two_group_spam_graph()
        result = Rejecto(RejectoConfig(estimated_spammers=24)).detect(
            graph, spammer_seeds=[group_b[0]]
        )
        assert group_b[0] in result.detected_set()


class TestSelfRejectionResilience:
    def test_self_rejection_exposes_rejected_accounts_first(self):
        """Attackers rejecting their own accounts (Fig. 8) craft a lower
        ratio cut inside the fake region; iterative rounds must still
        recover the whitewashing rejecters in a later round."""
        rng = random.Random(9)
        n_legit = 80
        graph = AugmentedSocialGraph(n_legit)
        for u in range(n_legit):
            for _ in range(4):
                v = rng.randrange(n_legit)
                if v != u:
                    graph.add_friendship(u, v)
        # All 20 fakes spam legit users (2 accepted / 8 rejected each),
        # exactly as in the paper's baseline workload (§VI-A).
        spammers = graph.add_nodes(10)
        whitewashed = graph.add_nodes(10)
        for f in spammers + whitewashed:
            others = [o for o in spammers + whitewashed if o != f]
            graph.add_friendship(f, rng.choice(others))
        for f in spammers + whitewashed:
            targets = rng.sample(range(n_legit), 10)
            for t in targets[:2]:
                graph.add_friendship(f, t)
            for t in targets[2:]:
                graph.add_rejection(t, f)
        # The whitewashed half additionally rejects the spamming half
        # wholesale, crafting an internal cut whose friends-to-rejections
        # ratio undercuts the real spammer/legitimate cut (Fig. 8).
        for w in whitewashed:
            for f in spammers:
                graph.add_rejection(w, f)
        result = Rejecto(RejectoConfig(estimated_spammers=20)).detect(graph)
        detected = result.detected_set()
        assert set(spammers) <= detected
        assert set(whitewashed) <= detected
        # The spamming half (victims of self-rejection) falls first.
        first_round = set(result.groups[0].members)
        assert set(spammers) <= first_round
        assert not set(whitewashed) & first_round


class TestRejectoResult:
    def test_result_accessors(self):
        group = DetectedGroup(
            members=[5, 3],
            acceptance_rate=0.25,
            ratio=1 / 3,
            f_cross=2,
            r_cross=6,
            k=0.5,
            round_index=0,
        )
        result = RejectoResult(groups=[group], rounds_run=1, termination="no_cut")
        assert result.detected() == [5, 3]
        assert result.detected(limit=1) == [5]
        assert result.detected_set() == {3, 5}
        assert result.total_detected == 2
        assert len(group) == 2


class TestResidualViewRounds:
    """The CSR engine's rounds carve residual *views*, never copies."""

    def test_rounds_do_not_call_subgraph(self, monkeypatch):
        graph, group_a, group_b = two_group_spam_graph()

        def forbidden(self, nodes):  # pragma: no cover - must not run
            raise AssertionError(
                "default-engine detection must not deep-copy via subgraph()"
            )

        monkeypatch.setattr(AugmentedSocialGraph, "subgraph", forbidden)
        result = Rejecto(RejectoConfig(estimated_spammers=24)).detect(graph)
        assert result.rounds_run >= 2
        assert set(group_a) <= result.detected_set()

    def test_rounds_reuse_one_csr_snapshot(self):
        graph, _, _ = two_group_spam_graph()
        csr = graph.csr()
        result = Rejecto(RejectoConfig(estimated_spammers=24)).detect(graph)
        # detect() finalized the builder once and reused the cached CSR;
        # every round only allocated an O(V) active mask on top of it.
        assert graph.csr() is csr
        assert result.rounds_run >= 2
