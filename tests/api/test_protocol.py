"""One parametrized suite asserting every scorer speaks the unified API.

Every implementation — exact, landmark-approximate, TwitterRank, SALSA,
and the sharded serving tier — must:

- satisfy the :class:`repro.api.Recommender` structural protocol;
- return a :class:`repro.api.RecommendationResponse` whose ranking is
  sorted descending by score with ascending-node tie-break;
- respect ``top_n``;
- raise :class:`~repro.errors.StaleSnapshotError` when pinned to a
  snapshot whose graph has since mutated, and recover under
  ``allow_stale=True``;

and the legacy tuple-returning entry point (``recommend_pairs``) must
stay deleted — its deprecation cycle is over.
"""

import pytest

from repro.api import RecommendationResponse
from repro.api import Recommender as RecommenderProtocol
from repro.baselines import SalsaRecommender, TwitterRank
from repro.config import LandmarkParams, ScoreParams
from repro.core.recommender import Recommender
from repro.datasets import generate_twitter_graph
from repro.distributed.sharded import ShardedPlatform
from repro.errors import StaleSnapshotError
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkIndex,
    select_landmarks,
)

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"

FACTORIES = {
    "exact": lambda graph, sim, index: Recommender(graph, sim, PARAMS),
    "approximate": lambda graph, sim, index: ApproximateRecommender(
        graph, sim, index, params=PARAMS),
    "twitterrank": lambda graph, sim, index: TwitterRank(graph),
    "salsa": lambda graph, sim, index: SalsaRecommender(graph),
    "sharded": lambda graph, sim, index: ShardedPlatform.build(
        graph, sim, index, 3, params=PARAMS),
}


def _build_world(web_sim, nodes=150, seed=11, num_landmarks=10):
    graph = generate_twitter_graph(nodes, seed=seed)
    landmarks = select_landmarks(graph, "In-Deg", num_landmarks, rng=1)
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=num_landmarks,
                                       top_n=50))
    return graph, index


@pytest.fixture(scope="module")
def world(web_sim):
    return _build_world(web_sim)


@pytest.fixture(scope="module")
def query_user(world):
    graph, index = world
    return next(n for n in sorted(graph.nodes())
                if graph.out_degree(n) >= 3
                and n not in set(index.landmarks))


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestUnifiedProtocol:
    def test_satisfies_protocol(self, name, world, web_sim):
        graph, index = world
        scorer = FACTORIES[name](graph, web_sim, index)
        assert isinstance(scorer, RecommenderProtocol)

    def test_returns_sorted_response(self, name, world, web_sim,
                                     query_user):
        graph, index = world
        scorer = FACTORIES[name](graph, web_sim, index)
        response = scorer.recommend(query_user, TOPIC, top_n=10)
        assert isinstance(response, RecommendationResponse)
        pairs = response.pairs()
        assert pairs == sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
        assert all(score > 0.0 for _, score in pairs)
        assert query_user not in response.nodes()

    def test_top_n_respected(self, name, world, web_sim, query_user):
        graph, index = world
        scorer = FACTORIES[name](graph, web_sim, index)
        small = scorer.recommend(query_user, TOPIC, top_n=3)
        assert len(small) <= 3
        assert small.pairs() == scorer.recommend(
            query_user, TOPIC, top_n=10).pairs()[:len(small)]

    def test_stale_snapshot_raises_then_allow_stale_recovers(
            self, name, web_sim):
        graph, index = _build_world(web_sim, nodes=80, seed=3,
                                    num_landmarks=6)
        user = next(n for n in sorted(graph.nodes())
                    if graph.out_degree(n) >= 3
                    and n not in set(index.landmarks))
        snapshot = graph.snapshot()
        scorer = FACTORIES[name](snapshot, web_sim, index)
        fresh = scorer.recommend(user, TOPIC, top_n=5)
        assert isinstance(fresh, RecommendationResponse)
        source, target = sorted(graph.nodes())[:2]
        graph.add_edge(source, target, (TOPIC,))
        with pytest.raises(StaleSnapshotError):
            scorer.recommend(user, TOPIC, top_n=5)
        stale = scorer.recommend(user, TOPIC, top_n=5, allow_stale=True)
        assert isinstance(stale, RecommendationResponse)
        assert stale.pairs() == fresh.pairs()


class TestResponseShape:
    def test_response_behaves_like_ranked_list(self, world, web_sim,
                                               query_user):
        graph, index = world
        response = ApproximateRecommender(
            graph, web_sim, index, params=PARAMS).recommend(
                query_user, TOPIC, top_n=5)
        assert len(response) == len(list(response))
        node, score = response[0]
        assert (node, score) == response[0].as_pair()
        assert [n for n, _ in response] == response.nodes()
        assert response[:2] == list(response)[:2]

    def test_engines_are_labelled(self, world, web_sim, query_user):
        graph, index = world
        for name, factory in FACTORIES.items():
            response = factory(graph, web_sim, index).recommend(
                query_user, TOPIC, top_n=3)
            assert response.engine == name


class TestShimsRemoved:
    """The deprecated tuple-returning surface completed its cycle.

    ``recommend_pairs`` and the legacy ``recommend`` keywords warned
    for one release and are now gone; these tests pin the *absence* so
    a shim cannot quietly reappear without re-entering deprecation
    review.
    """

    def test_recommend_pairs_is_gone(self):
        assert not hasattr(ApproximateRecommender, "recommend_pairs")
        assert not hasattr(TwitterRank, "recommend_pairs")

    def test_exact_legacy_keywords_rejected(self, world, web_sim,
                                            query_user):
        graph, _ = world
        scorer = Recommender(graph, web_sim, PARAMS)
        with pytest.raises(TypeError):
            scorer.recommend(query_user, TOPIC, top_n=5,
                             aggregation="combsum")

    def test_salsa_requires_topic(self, world, query_user):
        graph, _ = world
        scorer = SalsaRecommender(graph)
        with pytest.raises(TypeError):
            scorer.recommend(query_user)

    def test_warn_legacy_helper_is_gone(self):
        import repro.api
        assert not hasattr(repro.api, "warn_legacy")
