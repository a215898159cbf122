"""Query/result type validation."""

import pytest

from repro.core.query import STPSJoinQuery, TopKQuery, UserPair, pairs_to_dict


class TestSTPSJoinQuery:
    def test_valid(self):
        q = STPSJoinQuery(0.01, 0.5, 0.5)
        assert q.eps_loc == 0.01

    def test_zero_eps_loc_allowed(self):
        # Exact co-location requirement is legal.
        STPSJoinQuery(0.0, 0.5, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps_loc=-0.1, eps_doc=0.5, eps_user=0.5),
            dict(eps_loc=0.1, eps_doc=0.0, eps_user=0.5),
            dict(eps_loc=0.1, eps_doc=1.5, eps_user=0.5),
            dict(eps_loc=0.1, eps_doc=0.5, eps_user=0.0),
            dict(eps_loc=0.1, eps_doc=0.5, eps_user=1.1),
            dict(eps_loc=float("nan"), eps_doc=0.5, eps_user=0.5),
            dict(eps_loc=float("inf"), eps_doc=0.5, eps_user=0.5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            STPSJoinQuery(**kwargs)

    def test_frozen(self):
        q = STPSJoinQuery(0.1, 0.5, 0.5)
        with pytest.raises(AttributeError):
            q.eps_loc = 0.2  # type: ignore[misc]


class TestTopKQuery:
    def test_valid(self):
        assert TopKQuery(0.1, 0.5, 3).k == 3

    @pytest.mark.parametrize("k", [0, -1])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            TopKQuery(0.1, 0.5, k)

    @pytest.mark.parametrize("eps_loc", [float("nan"), float("inf")])
    def test_non_finite_eps_loc(self, eps_loc):
        with pytest.raises(ValueError, match="finite"):
            TopKQuery(eps_loc, 0.5, 3)


class TestUserPair:
    def test_key(self):
        assert UserPair("a", "b", 0.5).key == ("a", "b")

    def test_pairs_to_dict(self):
        pairs = [UserPair("a", "b", 0.5), UserPair("a", "c", 0.7)]
        assert pairs_to_dict(pairs) == {("a", "b"): 0.5, ("a", "c"): 0.7}
