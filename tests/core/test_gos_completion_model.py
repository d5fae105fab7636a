"""Property tests of the GOS makespan across machine counts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gos import greedy_online_schedule, makespan


class TestCompletionModelProperties:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=20.0),
                 min_size=2, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_more_machines_bounded_regression(self, weights):
        """Provable: C_greedy(3) <= (2 - 1/3) OPT(3) <= (5/3) C_greedy(2)
        (OPT can only improve with more machines).  Strict monotonicity of
        greedy in k is not guaranteed in general, so we assert the bound
        that is."""
        _, loads_k = greedy_online_schedule(weights, 2)
        _, loads_k1 = greedy_online_schedule(weights, 3)
        assert makespan(loads_k1) <= (5.0 / 3.0) * makespan(loads_k) + 1e-9
