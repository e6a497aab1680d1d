import random
from fractions import Fraction

import pytest

from dhpoly import (
    PreconditionError,
    RatMatrix,
    SandConfig,
    check_conservation,
    orbit,
    phi,
    random_config,
    standard_gf,
    step,
)
from dhpoly.sandpile import _weighted_sums
from helpers import full_scan_step


def single_grain(L, x, y, height=1):
    rows = [[0] * L for _ in range(L)]
    rows[L - 1 - y][x] = height
    return SandConfig(tuple(tuple(r) for r in rows))


class TestStep:
    def test_flat_is_fixed(self):
        c = SandConfig(((0, 0), (0, 0)))
        assert step(c) == c

    def test_single_toppling(self):
        c = single_grain(5, 2, 2, height=4)
        after = step(c)
        assert after.at(2, 2) == 0
        for x, y in ((1, 2), (3, 2), (2, 1), (2, 3)):
            assert after.at(x, y) == 1
        assert after.total == c.total

    def test_uniform_critical_is_fixed(self):
        c = SandConfig(tuple(tuple(4 for _ in range(5)) for _ in range(5)))
        assert step(c) == c

    def test_torus_wraparound(self):
        c = single_grain(3, 0, 0, height=4)
        after = step(c)
        assert after.at(0, 0) == 0
        for x, y in ((1, 0), (2, 0), (0, 1), (0, 2)):
            assert after.at(x, y) == 1

    def test_energy_conserved_along_orbits(self):
        rng = random.Random(91)
        for _ in range(5):
            c = random_config(6, rng)
            total = c.total
            for state in orbit(c, 30):
                assert state.total == total

    def test_determinism(self):
        c = random_config(6, 17)
        assert orbit(c, 20) == orbit(c, 20)
        assert random_config(6, 17) == c


def random_heights(rng, L, max_height=12):
    return SandConfig(
        tuple(tuple(rng.randint(0, max_height) for _ in range(L)) for _ in range(L))
    )


def full_scan_orbit(config, steps):
    states = [config]
    for _ in range(steps):
        states.append(full_scan_step(states[-1]))
    return states


class TestMarch:
    """The toppling march, which rescans only the sites the last update
    changed, against the full-scan step it replaced, iterated."""

    @pytest.mark.parametrize("L", range(1, 9))
    def test_orbit_matches_full_scan(self, L):
        # heights up to 12 make some sites topple in consecutive updates,
        # which only a rescan of the toppled sites themselves catches
        rng = random.Random(340 + L)
        again = 0
        for _ in range(6):
            config = random_heights(rng, L)
            expected = full_scan_orbit(config, 12)
            assert orbit(config, 12) == expected
            assert step(config) == expected[1]
            again += any(
                a >= 4 and b >= 4
                for before, after in zip(expected, expected[1:])
                for a, b in zip(sum(before.heights, ()), sum(after.heights, ()))
            )
        assert again

    @pytest.mark.parametrize(
        "config",
        [
            SandConfig(((4,),)),
            SandConfig(((4, 4), (4, 4))),
            SandConfig(tuple(tuple(4 for _ in range(5)) for _ in range(5))),
            single_grain(1, 0, 0, height=9),
            single_grain(2, 0, 0, height=4),
            single_grain(2, 1, 0, height=13),
            single_grain(3, 2, 1, height=8),
        ],
    )
    def test_fixed_points_and_single_grains(self, config):
        # on the 1x1 and 2x2 tori one neighbor gets several grains
        assert orbit(config, 6) == full_scan_orbit(config, 6)


class TestWeightedSums:
    """_weighted_sums, which adds the weights' torus Laplacian at each
    toppling site, against phi on every configuration of the orbit."""

    @staticmethod
    def weights(L, name, rng):
        if name == "indicator":
            rows = [[0] * L for _ in range(L)]
            rows[rng.randrange(L)][rng.randrange(L)] = 1
            return RatMatrix(rows)
        if name == "random":
            return RatMatrix([[rng.randint(-9, 9) for _ in range(L)] for _ in range(L)])
        return standard_gf(L, name)

    @pytest.mark.parametrize("name", ["i", "j", "i2-j2", "indicator", "random"])
    @pytest.mark.parametrize("L", range(1, 9))
    def test_matches_phi_along_the_orbit(self, L, name):
        rng = random.Random(350 + L)
        for _ in range(4):
            config = random_heights(rng, L)
            f = self.weights(L, name, rng)
            sums = list(_weighted_sums(f, config, 12))
            assert sums == [phi(f, c) for c in orbit(config, 12)]
            assert all(type(v) is Fraction for v in sums)

    def test_steps_are_checked_before_the_weights(self):
        config = random_config(5, 1)
        wrong_size = standard_gf(4, "i")
        rational = RatMatrix([[Fraction(1, 2)] * 5 for _ in range(5)])
        for f in (wrong_size, rational):
            with pytest.raises(TypeError):
                next(_weighted_sums(f, config, 2.5))
            with pytest.raises(PreconditionError, match="below the minimum"):
                next(_weighted_sums(f, config, -1))
            with pytest.raises(PreconditionError, match="below the minimum"):
                check_conservation(f, config, -1)
        with pytest.raises(PreconditionError, match="sizes differ"):
            next(_weighted_sums(wrong_size, config, 3))
        with pytest.raises(PreconditionError, match="integers"):
            check_conservation(rational, config, 3)


class TestRandomConfig:
    @pytest.mark.parametrize("max_height", range(16))
    def test_draws_randint_heights_and_state(self, max_height):
        # the same heights as randint(0, max_height) on this interpreter,
        # and the generator left in the same state, for int and Random seeds
        for seed in range(40):
            ref = random.Random(seed)
            want = tuple(
                tuple(ref.randint(0, max_height) for _ in range(5)) for _ in range(5)
            )
            assert random_config(5, seed, max_height).heights == want
            rng = random.Random(seed)
            assert random_config(5, rng, max_height).heights == want
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("max_height", [0, 4, 9])
    def test_subclass_draws_its_own_randint(self, max_height):
        # a subclass that overrides only random() makes randint draw through
        # it, not through getrandbits; random_config follows its randint
        class Halved(random.Random):
            def random(self):
                return super().random() / 2

        plain = 0
        for seed in range(10):
            ref = Halved(seed)
            want = tuple(
                tuple(ref.randint(0, max_height) for _ in range(5)) for _ in range(5)
            )
            rng = Halved(seed)
            assert random_config(5, rng, max_height).heights == want
            assert rng.getstate() == ref.getstate()
            plain += want == random_config(5, seed, max_height).heights
        assert plain == (10 if max_height == 0 else 0)


class TestSandConfig:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SandConfig(((0, -1), (0, 0)))

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            SandConfig(((Fraction(1, 2), 0), (0, 0)))

    def test_rejects_ragged(self):
        from dhpoly import SizeError

        with pytest.raises(SizeError):
            SandConfig(((0, 0), (0,)))


class TestPhi:
    def test_uniform_weight_counts_energy(self):
        f = RatMatrix([[1] * 5 for _ in range(5)])
        c = random_config(5, 3)
        assert phi(f, c) == c.total % 5

    def test_single_grain_reads_coordinate(self):
        f = standard_gf(5, "i")
        c = single_grain(5, 3, 2)
        assert phi(f, c) == 3

    def test_brute_force_oracle(self):
        rng = random.Random(92)
        f = standard_gf(6, "i2-j2")
        c = random_config(6, rng)
        total = Fraction(0)
        for x in range(6):
            for y in range(6):
                total += f.at(x, y) * c.at(x, y)
        assert phi(f, c) == total % 6

    def test_size_mismatch(self):
        with pytest.raises(PreconditionError):
            phi(standard_gf(4, "i"), random_config(5, 1))

    def test_residue_in_range(self):
        f = RatMatrix([[-7] * 3 for _ in range(3)])
        c = random_config(3, 4)
        value = phi(f, c)
        assert 0 <= value < 3
        assert value == -7 * c.total % 3


class TestStandardWeights:
    def test_names(self):
        f = standard_gf(4, "i")
        assert f.at(3, 1) == 3
        g = standard_gf(4, "j")
        assert g.at(3, 1) == 1
        h = standard_gf(4, "i2-j2")
        assert h.at(3, 1) == 8

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            standard_gf(4, "k")


class TestConservation:
    @pytest.mark.parametrize("name", ["i", "j", "i2-j2"])
    def test_classic_weights_conserved(self, name):
        rng = random.Random(93)
        for _ in range(3):
            c = random_config(7, rng)
            assert check_conservation(standard_gf(7, name), c, 50)

    def test_counterexample_weight(self):
        # indicator of one site: a toppling there shifts the weighted sum
        # by -4, which is nonzero mod 5
        rows = [[0] * 5 for _ in range(5)]
        rows[2][2] = 1
        f = RatMatrix(rows)
        c = single_grain(5, 2, 2, height=4)
        assert phi(f, c) == 4
        assert phi(f, step(c)) == 0
        assert not check_conservation(f, c, 1)

    def test_fixed_point_orbit(self):
        c = SandConfig(tuple(tuple(4 for _ in range(5)) for _ in range(5)))
        assert check_conservation(standard_gf(5, "i2-j2"), c, 10)

    def test_negative_steps(self):
        with pytest.raises(PreconditionError):
            check_conservation(standard_gf(5, "i"), random_config(5, 1), -5)


class TestPeriodicity:
    def test_orbit_enters_cycle(self):
        rng = random.Random(94)
        for _ in range(5):
            c = random_config(5, rng, max_height=4)
            seen = {}
            current = c
            for t in range(20000):
                if current in seen:
                    break
                seen[current] = t
                current = step(current)
            else:
                pytest.fail("no cycle found within the step budget")
