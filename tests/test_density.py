import numpy as np
import pytest

import condpoint as cp
from condpoint import density, spaces
from condpoint import quadrature as quad
from condpoint.config import load_space
from condpoint.errors import NullMarginal, OutOfRectangle

import oracles
from conftest import SCENARIO_DIR


def test_marginal_standard_bivariate(bivariate):
    joint = bivariate(0.0)
    for y in (-1.5, 0.0, 0.3, 2.0):
        assert abs(cp.marginal(joint, y) - oracles.normal_pdf(y)) <= 1e-6


def test_marginal_product_density():
    # product g(z)h(y); marginal at y must be h(y) once g integrates to 1
    n = 401
    z = np.linspace(-6, 6, n)[:, None]
    y = np.linspace(0.0, 1.0, n)[None, :]
    vals = oracles.normal_pdf(z) * np.ones_like(y)
    joint = cp.DensityGrid2D(("z", "y"), ((-6.0, 6.0), (0.0, 1.0)), vals * np.ones((1, n)))
    assert abs(cp.marginal(joint, 0.37) - 1.0) <= 1e-8


def test_marginal_uniform_square(uniform_square):
    assert abs(cp.marginal(uniform_square, 0.3) - 1.0) <= 1e-12


def test_marginal_out_of_rectangle(uniform_square):
    with pytest.raises(OutOfRectangle):
        cp.marginal(uniform_square, 1.5)


def test_conditional_density_bivariate(bivariate):
    joint = bivariate(0.5)
    cd = cp.conditional_density(joint, 1.0)
    ref = oracles.normal_pdf(cd.nodes, mean=0.5, var=0.75)
    assert np.abs(cd.values - ref).max() <= 1e-6
    assert abs(cd.defect) <= 1e-12
    assert cd.marginal_value > 0


def test_conditional_density_independent_joint(bivariate):
    joint = bivariate(0.0)
    cd = cp.conditional_density(joint, -0.8)
    ref = oracles.normal_pdf(cd.nodes)
    assert np.abs(cd.values - ref).max() <= 1e-6


def test_conditional_density_gaussian_posterior(gaussian_sum_grid):
    cd = cp.conditional_density(gaussian_sum_grid, 2.0)
    ref = oracles.normal_pdf(cd.nodes, mean=oracles.posterior_mean(2.0),
                             var=oracles.posterior_var())
    assert np.abs(cd.values - ref).max() <= 1e-4


def test_conditional_density_normalization_and_positivity(bivariate):
    joint = bivariate(0.9)
    for y in (-2.0, -0.5, 0.0, 1.3):
        cd = cp.conditional_density(joint, y)
        from condpoint import quadrature as quad
        assert abs(quad.integrate(cd.values, cd.pitch) - 1.0) <= 1e-12
        assert np.all(cd.values >= 0)


def test_null_marginal(bivariate):
    with pytest.raises(NullMarginal):
        cp.conditional_density(bivariate(0.0), 7.9)


def test_expectation_of_one_is_one(bivariate):
    val = cp.conditional_expectation_via_density(bivariate(0.5), 1.0,
                                                 lambda z: np.ones_like(z))
    assert abs(val - 1.0) <= 1e-12


def test_conditional_mean_formula(bivariate):
    for rho in (0.0, 0.5, 0.9):
        joint = bivariate(rho)
        for y in (-1.0, 0.4, 1.7):
            got = cp.conditional_expectation_via_density(joint, y)
            assert abs(got - oracles.bivariate_cond_mean(rho, y)) <= 1e-5


def test_conditional_second_moment(bivariate):
    joint = bivariate(0.5)
    got = cp.conditional_expectation_via_density(joint, 1.0, lambda z: z * z)
    want = oracles.bivariate_cond_var(0.5) + oracles.bivariate_cond_mean(0.5, 1.0) ** 2
    assert abs(got - want) <= 1e-5


def test_conditional_cdf_sweep(bivariate):
    cd = cp.conditional_density(bivariate(0.5), 1.0)
    xs = np.linspace(-4, 4, 17)
    cdf = [cd.cdf(x) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(cdf[:-1], cdf[1:]))
    assert cdf[0] <= 1e-4 and abs(cd.cdf(cd.nodes[-1]) - 1.0) <= 1e-12
    # indicator expectation matches the clipped route to node-indicator accuracy
    ind = cp.conditional_expectation_via_density(
        bivariate(0.5), 1.0, lambda z: (z <= 0.5).astype(float))
    assert abs(ind - cd.cdf(0.5)) <= cd.pitch * float(cd.values.max())


def test_conditional_cdf_takes_arrays(bivariate):
    from condpoint import quadrature as quad
    cd = cp.conditional_density(bivariate(0.5), 1.0)
    xs = np.concatenate([np.linspace(-9.0, 9.0, 37), cd.nodes[::97]])
    one_by_one = [cd.cdf(x) for x in xs]
    assert all(type(v) is float for v in one_by_one)
    assert [repr(v) for v in cd.cdf(xs).tolist()] == [repr(v) for v in one_by_one]
    # the cumulative built once is the one a fresh prefix sum gives, at the
    # pitch of the node range
    fresh = quad.cumulative(cd.values, float(cd.nodes[-1] - cd.nodes[0]) / (cd.nodes.size - 1))
    assert np.array_equal(cd.cum, fresh)


def test_reconstruction_total_expectation(bivariate):
    # integrating the conditional mean against the marginal law recovers E[g(Z)]
    joint = bivariate(0.5)
    law = cp.pushforward(joint, cp.coordinate("y"))
    keep = law.values > 1e-10  # stay where conditioning is defined
    nodes = law.grid[0][keep]
    g = lambda z: z * z
    cond = np.array([cp.conditional_density(joint, y).expectation(g) for y in nodes])
    total = float(np.trapezoid(cond * law.values[keep], dx=law.pitches[0]))
    direct = cp.expectation(joint, cp.coordinate("z") * cp.coordinate("z")).value
    assert abs(total - direct) <= 1e-6


def test_conditional_probability_window_vs_cdf(bivariate):
    # P(Z <= t | Y = y) two ways: indicator through the window limit, and
    # the conditional distribution function from the ratio density
    joint = bivariate(0.5)
    z = cp.coordinate("z")
    ind = cp.RandomVariable("z<=0.5", lambda f: (f["z"] <= 0.5).astype(float))
    tr = cp.window_estimate(joint, ind, cp.coordinate("y"), 1.0)
    cdf = cp.conditional_density(joint, 1.0).cdf(0.5)
    assert abs(tr.value - cdf) <= 2.0 * joint.pitches[0]  # indicator smear is O(pitch)
    assert 0.0 <= tr.value <= 1.0


def test_window_density_cross_validation(bivariate):
    # the two constructions of the pointwise conditional mean must agree
    joint = bivariate(0.9)
    for y in (-1.5, 0.0, 0.8):
        tr = cp.window_estimate(joint, cp.coordinate("z"), cp.coordinate("y"), y)
        dv = cp.conditional_expectation_via_density(joint, y)
        assert abs(tr.value - dv) <= 1e-3


def test_ratio_route_reads_the_window_paths_marginals(monkeypatch):
    # a window table along y caches the marginals of Z*f and f along y; the
    # ratio route then reads those, O(1) per point and with no new entry
    bundle = load_space(SCENARIO_DIR / "spaces" / "bivariate-05.json")
    joint, Z, Y = bundle.space, bundle.variables["Z"], bundle.variables["Y"]
    cp.evaluate_on_grid(joint, Z, Y, np.linspace(-2.0, 2.0, 5))
    entries = set(joint._cache)
    products, columns = [], []
    real_product, real_column = spaces._grid_product, density._column_at
    monkeypatch.setattr(spaces, "_grid_product",
                        lambda space, rv: products.append(rv) or real_product(space, rv))
    monkeypatch.setattr(density, "_column_at",
                        lambda joint, y: columns.append(y) or real_column(joint, y))
    ys = np.linspace(-4.0, 4.0, 81)
    got = [cp.conditional_expectation_via_density(joint, y) for y in ys]
    assert set(joint._cache) == entries
    assert products == [] and columns == []
    for y, value in zip(ys, got):
        assert abs(value - cp.conditional_density(joint, y).expectation()) <= 1e-13, y
        assert abs(cp.marginal(joint, y) - cp.conditional_density(joint, y).marginal_value) \
            <= 1e-13 * cp.marginal(joint, 0.0)


def _two_lookup_ratio(joint, y):
    """The ratio route as two ``interp_at`` calls, each finding y's cell on
    its own: the mass marginal, checked against the floor, then that of z*f."""
    t = density._inside(joint, y)
    fy = quad.interp_at(joint.grid[1], spaces._grid_marginal(joint, None, 1)[0][:, 1], t)
    if fy < density.DENSITY_FLOOR:
        raise NullMarginal(f"marginal at y={y!r} is {fy!r}, below the floor "
                           f"{density.DENSITY_FLOOR!r}")
    z = cp.coordinate(joint.axes[0])
    return quad.interp_at(joint.grid[1], spaces._grid_marginal(joint, z, 1)[0][:, 1], t) / fy


def _outcome(route, joint, y):
    """(kind, text): ("value", its repr), or the error's type name and message."""
    try:
        return "value", repr(route(joint, y))
    except (NullMarginal, OutOfRectangle) as exc:
        return type(exc).__name__, str(exc)


def test_ratio_route_equals_two_interpolations_bit_for_bit(bivariate, uniform_square):
    # one cell lookup reads both marginals as two interp_at calls read them,
    # by repr: at nodes, between nodes, at both ends of the range, off it
    # (OutOfRectangle) and below the marginal floor (NullMarginal)
    seen = set()
    for joint in (bivariate(0.5), uniform_square):
        nodes = joint.grid[1]
        (c, d), pitch = joint.ranges[1], joint.pitches[1]
        rng = np.random.default_rng(20260811)
        ys = [c, d, *nodes[[1, 2, len(nodes) // 2, -2]], c + 0.5 * pitch, d - 0.3 * pitch,
              *rng.uniform(c, d, 40), c - 1e-9, d + 1e-9, c - 1.0, 7.9, -7.9]
        for y in ys:
            want = _outcome(_two_lookup_ratio, joint, y)
            assert _outcome(cp.conditional_expectation_via_density, joint, y) == want, y
            seen.add(want[0])
    assert seen == {"value", "NullMarginal", "OutOfRectangle"}
