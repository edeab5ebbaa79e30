import pickle

import numpy as np
import pytest

from curvesurvey import ValidationError
from curvesurvey.grids import FunctionalPopulation, TimeGrid, population_mean


class TestTimeGrid:
    def test_valid(self):
        g = TimeGrid([0.0, 0.5, 1.0])
        assert g.size == 3

    def test_points_are_a_read_only_copy(self):
        pts = np.linspace(0.0, 1.0, 4)
        g = TimeGrid(pts)
        assert not g.points.flags.writeable and pts.flags.writeable
        copy = pickle.loads(pickle.dumps(g))
        assert not copy.points.flags.writeable
        assert np.array_equal(copy.points, pts)

    @pytest.mark.parametrize(
        "pts", [[0.0], [0.0, 0.0], [1.0, 0.5], [0.0, np.nan]]
    )
    def test_rejects_bad_grids(self, pts):
        with pytest.raises(ValidationError):
            TimeGrid(pts)


class TestPopulation:
    def test_mean_identical_curves(self):
        g = TimeGrid([0.0, 1.0])
        pop = FunctionalPopulation(
            g, np.array([[1.0, 2.0], [1.0, 2.0]]), np.ones((2, 1))
        )
        assert np.array_equal(population_mean(pop), [1.0, 2.0])

    def test_mean_hand_case(self):
        g = TimeGrid([0.0, 1.0])
        pop = FunctionalPopulation(
            g, np.array([[0.0, 0.0], [2.0, 4.0]]), np.ones((2, 1))
        )
        assert np.allclose(population_mean(pop), [1.0, 2.0])

    def test_mean_matches_naive_loop(self, rng):
        g = TimeGrid(np.linspace(0, 1, 3))
        values = rng.standard_normal((5, 3))
        pop = FunctionalPopulation(g, values, np.ones((5, 1)))
        naive = np.zeros(3)
        for k in range(5):
            for i in range(3):
                naive[i] += values[k, i]
        naive /= 5
        assert np.allclose(population_mean(pop), naive, atol=1e-12)

    def test_shape_validation(self):
        g = TimeGrid([0.0, 1.0])
        with pytest.raises(ValidationError):
            FunctionalPopulation(g, np.ones((3, 3)), np.ones((3, 1)))
        with pytest.raises(ValidationError):
            FunctionalPopulation(g, np.ones((3, 2)), np.ones((2, 1)))
        with pytest.raises(ValidationError):
            FunctionalPopulation(g, np.full((3, 2), np.inf), np.ones((3, 1)))

    def test_values_and_aux_are_read_only_views_of_the_callers_arrays(self):
        values, aux = np.zeros((3, 4)), np.ones((3, 2))
        pop = FunctionalPopulation(TimeGrid(np.linspace(0, 1, 4)), values, aux)
        for mine, held in ((values, pop.values), (aux, pop.aux)):
            assert not held.flags.writeable and np.shares_memory(mine, held)
            mine[0, 0] = 7.0  # the caller's array stays writable
            assert held[0, 0] == 7.0
