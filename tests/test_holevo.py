import itertools

import numpy as np
import pytest

from qsense.core import (
    DensityMatrix,
    HermitianOperator,
    NumericalError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    WeightMatrix,
    identity,
    tensor_product,
)
from qsense.bounds import pseudo_inverse, qfim, scalar_bound
from qsense.holevo import (
    SchurBarrier,
    hb_sandwich,
    hermitian_basis,
    holevo_bound,
    unbiased_family,
)
from qsense.model import state_derivatives, unitary_family

PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
ZERO = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))


def half(op):
    return HermitianOperator(op.entries / 2)


def xy_model(mixed=0.0):
    rho = DensityMatrix((1 - mixed) * ZERO.entries + mixed * np.eye(2) / 2)
    return unitary_family(rho, [half(PAULI_X), half(PAULI_Y)])


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return DensityMatrix(h / np.trace(h))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))


def random_two_parameter_model(rng, dim):
    return unitary_family(
        random_density(rng, dim), [random_hermitian(rng, dim), random_hermitian(rng, dim)]
    )


def nagaoka_value(model, theta, w_mat, coeffs, family):
    """Independent evaluation of the analytic-in-V form of the bound objective:
    Tr[W Re Z[X]] + trace-norm of sqrt(W) Im Z[X] sqrt(W)."""
    theta = np.asarray(theta, dtype=float)
    rho = model.evaluate(theta).entries
    d = model.parameter_count
    xs = []
    for i in range(d):
        x = family.particular[i].entries.copy()
        for c, b in zip(np.atleast_1d(coeffs[i]), family.homogeneous):
            x = x + c * b.entries
        xs.append(x - theta[i] * np.eye(model.dim))
    z = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            z[i, j] = np.trace(rho @ xs[i] @ xs[j])
    lam, u = np.linalg.eigh(w_mat)
    sqrt_w = (u * np.sqrt(np.clip(lam, 0, None))) @ u.T
    inner = sqrt_w @ z.imag @ sqrt_w
    trace_norm = np.abs(np.linalg.eigvalsh(1j * inner)).sum()
    return float(np.trace(w_mat @ z.real)) + float(trace_norm)


class TestUnbiasedFamily:
    def test_single_parameter_family_dimension(self):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        fam = unbiased_family(model, [0.3])
        # two scalar constraints on the four-dimensional Hermitian space
        assert len(fam.homogeneous) == 4 - 2

    def test_constraint_residuals_random_models(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            d = int(rng.integers(1, 3))
            model = unitary_family(
                random_density(rng, dim), [random_hermitian(rng, dim) for _ in range(d)]
            )
            theta = rng.normal(scale=0.3, size=d)
            fam = unbiased_family(model, theta)
            rho = model.evaluate(theta).entries
            derivs = state_derivatives(model, theta)
            for i, x in enumerate(fam.particular):
                assert abs(np.real(np.trace(rho @ x.entries)) - theta[i]) < 1e-9
                for j, dr in enumerate(derivs):
                    target = 1.0 if i == j else 0.0
                    assert abs(np.real(np.trace(dr.entries @ x.entries)) - target) < 1e-8
            for b in fam.homogeneous:
                assert abs(np.real(np.trace(rho @ b.entries))) < 1e-8
                for dr in derivs:
                    assert abs(np.real(np.trace(dr.entries @ b.entries))) < 1e-8

    def test_singular_information_raises(self):
        # two parallel generators leave the second parameter unidentifiable
        model = unitary_family(ZERO, [half(PAULI_Z), HermitianOperator(PAULI_Z.entries)])
        with pytest.raises(NumericalError, match="identifiable|dependent"):
            unbiased_family(model, [0.0, 0.0])

    def test_basis_is_orthonormal(self):
        basis = hermitian_basis(3)
        assert len(basis) == 9
        for a, b in itertools.combinations_with_replacement(range(9), 2):
            inner = np.trace(basis[a] @ basis[b]).real
            assert abs(inner - (1.0 if a == b else 0.0)) < 1e-12


class TestHolevoBound:
    def test_single_parameter_collapses_to_qcrb(self):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        res = qfim(model, [0.4])
        sol = holevo_bound(model, [0.4], WeightMatrix.identity(1))
        assert abs(sol.value - 1.0 / res.qfim.matrix[0, 0]) < 1e-6

    @pytest.mark.parametrize("mixed", [0.0, 0.25])
    def test_rank_one_weight_equals_qcrb(self, mixed):
        model = xy_model(mixed)
        theta = [0.0, 0.0]
        res = qfim(model, theta)
        for nu in [np.array([1.0, 0.0]), np.array([0.8, 0.6]), np.array([1.0, -2.0])]:
            w = WeightMatrix.rank_one(nu)
            qcrb = scalar_bound(res.qfim, w).value
            sol = holevo_bound(model, theta, w)
            assert abs(sol.value - qcrb) <= 1e-5 * qcrb

    def test_maximally_incompatible_qubit_with_grid_oracle(self):
        model = xy_model()
        theta = [0.0, 0.0]
        w = WeightMatrix.identity(2)
        sol = holevo_bound(model, theta, w)
        qcrb = scalar_bound(qfim(model, theta).qfim, w).value
        assert qcrb - 1e-6 <= sol.value <= 2 * qcrb + 1e-6

        fam = unbiased_family(model, theta)
        assert len(fam.homogeneous) == 1  # the relevant X-subspace is 2-dim
        best = _grid_minimum(model, theta, w.entries, fam)
        assert abs(sol.value - best) <= 1e-3

    def test_mixed_qubit_grid_oracle(self):
        model = xy_model(mixed=0.3)
        theta = [0.0, 0.0]
        w = WeightMatrix.identity(2)
        sol = holevo_bound(model, theta, w)
        fam = unbiased_family(model, theta)
        assert len(fam.homogeneous) == 1
        best = _grid_minimum(model, theta, w.entries, fam)
        assert abs(sol.value - best) <= 1e-3

    def test_feasibility_of_returned_solutions(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            model = random_two_parameter_model(rng, dim)
            theta = rng.normal(scale=0.3, size=2)
            w = WeightMatrix(np.diag(rng.uniform(0.5, 2.0, size=2)))
            sol = holevo_bound(model, theta, w)
            assert sol.residuals["lifting_min_eig"] >= -1e-7
            assert sol.residuals["v_minus_z_min_eig"] >= -1e-7
            assert sol.residuals["unbiasedness_state"] < 1e-8
            assert sol.residuals["unbiasedness_derivative"] < 1e-7
            assert abs(sol.value - float(np.sum(w.entries * sol.v_opt))) < 1e-8

    def test_monotonicity_in_weight(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            model = random_two_parameter_model(rng, 2)
            theta = rng.normal(scale=0.3, size=2)
            a = rng.normal(size=(2, 2))
            w1 = WeightMatrix(a @ a.T + 0.1 * np.eye(2))
            b = rng.normal(size=(2, 2))
            w2 = WeightMatrix(w1.entries + b @ b.T)
            h1 = holevo_bound(model, theta, w1).value
            h2 = holevo_bound(model, theta, w2).value
            assert h2 >= h1 - 1e-7 * max(1.0, h1)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling_in_weight(self, c):
        rng = np.random.default_rng(33)
        model = random_two_parameter_model(rng, 3)
        theta = [0.1, -0.2]
        a = rng.normal(size=(2, 2))
        w = a @ a.T + 0.3 * np.eye(2)
        h = holevo_bound(model, theta, WeightMatrix(w)).value
        hc = holevo_bound(model, theta, WeightMatrix(c * w)).value
        assert abs(hc - c * h) <= 1e-8 * abs(c * h)

    def test_dimension_cap(self):
        rng = np.random.default_rng(1)
        model = random_two_parameter_model(rng, 2)
        big = unitary_family(
            random_density(rng, 17), [random_hermitian(rng, 17) for _ in range(2)]
        )
        from qsense.core import ValidationError

        with pytest.raises(ValidationError, match="capped"):
            holevo_bound(big, [0.0, 0.0], WeightMatrix.identity(2))
        del model


def _grid_minimum(model, theta, w_mat, family):
    """Coarse direct minimisation of the analytic-in-V objective over the
    homogeneous coefficients, with successive zooming."""
    fam_dim = len(family.homogeneous)
    d = model.parameter_count
    center = np.zeros(d * fam_dim)
    width = 3.0
    best = np.inf
    for _round in range(5):
        axes = [np.linspace(c - width, c + width, 21) for c in center]
        for point in itertools.product(*axes):
            coeffs = np.asarray(point).reshape(d, fam_dim)
            val = nagaoka_value(model, theta, w_mat, coeffs, family)
            if val < best:
                best = val
                center = np.asarray(point)
        width = width * 4.0 / 20.0
    return best


# Rank-deficient weight draws (rho0, generators, theta, W) on which the value read
# off the full-space certificate, sum(W * V_opt) with a tau grown by factors of 10,
# leaves [QCRB, h(X0)]: -1.8e24, -1.0e23, -262144, 0, 0 and +262144 for the last six,
# just above h(X0) for the qubit.
DEFICIENT_DRAWS = {
    "seed5-c01-004": {
        "rho_re": [
            [0.35559576827715367, 0.043440577221333654],
            [0.043440577221333654, 0.6444042317228463],
        ],
        "rho_im": [
            [0.0, 0.19257833656843984],
            [-0.19257833656843984, 0.0],
        ],
        "gens_re": [
            [
                [0.8412251663155744, -0.20607994916668806],
                [-0.20607994916668806, 1.2277469804460766],
            ],
            [
                [-0.3763818527977234, -0.11596606366051322],
                [-0.11596606366051322, -1.0611366577642445],
            ],
        ],
        "gens_im": [
            [
                [0.0, 0.13306327864118642],
                [-0.13306327864118642, 0.0],
            ],
            [
                [0.0, -0.8551364374768016],
                [0.8551364374768016, 0.0],
            ],
        ],
        "theta": [0.476373817217265, 0.18015572138940006],
        "weight": [
            [0.474674145728759, 0.20940648325744446],
            [0.20940648325744446, 0.0923814276063563],
        ],
    },
    "n3-d3-seed38": {
        "rho_re": [
            [0.32797432920016856, -0.1757374441609521, -0.191102176236734],
            [-0.1757374441609521, 0.37467639168040934, 0.20332358168341255],
            [-0.191102176236734, 0.20332358168341255, 0.29734927911942216],
        ],
        "rho_im": [
            [0.0, -0.10258205859192492, -0.11498656805842096],
            [0.10258205859192492, 0.0, 0.05343592636647353],
            [0.11498656805842096, -0.05343592636647353, 0.0],
        ],
        "gens_re": [
            [
                [0.25150576669618663, -1.1494959104821243, -0.05449102057315985],
                [-1.1494959104821243, -0.38007695127311264, -0.3657275694565885],
                [-0.05449102057315985, -0.3657275694565885, 0.900329746958328],
            ],
            [
                [0.0008745706765725111, 0.2815737866939972, -0.24327396632342427],
                [0.2815737866939972, -0.20020457589538312, -0.5870218508285638],
                [-0.24327396632342427, -0.5870218508285638, 0.9090701559160862],
            ],
            [
                [0.010986324961708501, -0.1369785856791175, 0.20250115994315],
                [-0.1369785856791175, 0.3309089885778875, -0.08657696469958245],
                [0.20250115994315, -0.08657696469958245, 0.7033900849544715],
            ],
        ],
        "gens_im": [
            [
                [0.0, -0.49036987962272516, -0.8057765913762004],
                [0.49036987962272516, 0.0, 0.011708811435982002],
                [0.8057765913762004, -0.011708811435982002, 0.0],
            ],
            [
                [0.0, -0.018600485100824665, 0.30613995683747725],
                [0.018600485100824665, 0.0, -0.11702426811307759],
                [-0.30613995683747725, 0.11702426811307759, 0.0],
            ],
            [
                [0.0, 0.2034099797699445, 0.11447183277096246],
                [-0.2034099797699445, 0.0, -0.22818647759933433],
                [-0.11447183277096246, 0.22818647759933433, 0.0],
            ],
        ],
        "theta": [0.2615508631552885, 0.13653836065740255, -0.1726755501941507],
        "weight": [
            [0.5525336267872019, 0.2416366172592289, -0.19665863637757486],
            [0.2416366172592289, 0.804223738201031, 0.010342229654007745],
            [-0.19665863637757486, 0.010342229654007745, 0.08328333967787216],
        ],
    },
    "n3-d3-seed42": {
        "rho_re": [
            [0.28704434054522815, 0.17406715156193378, 0.04400924528297357],
            [0.17406715156193378, 0.5535153245408362, 0.04421056047962698],
            [0.04400924528297357, 0.04421056047962698, 0.15944033491393572],
        ],
        "rho_im": [
            [0.0, -0.1801752109250881, 0.06367930495304602],
            [0.1801752109250881, 0.0, -0.005073870572486752],
            [-0.06367930495304602, 0.005073870572486752, 0.0],
        ],
        "gens_re": [
            [
                [0.5071735179294617, -0.21097979695411762, -0.1770127593915814],
                [-0.21097979695411762, 0.7058345709788969, -0.1462610191176172],
                [-0.1770127593915814, -0.1462610191176172, 0.3073288515713364],
            ],
            [
                [-0.06578759535051562, -0.05472232347615147, -0.43012333023628196],
                [-0.05472232347615147, 0.42911799582061966, 0.22381433269274448],
                [-0.43012333023628196, 0.22381433269274448, 0.06736858331800874],
            ],
            [
                [-0.2715697785753843, 0.24712423540064415, -0.5652293842323173],
                [0.24712423540064415, -0.4998878277182481, 0.1828449032320082],
                [-0.5652293842323173, 0.1828449032320082, 0.09396552594981168],
            ],
        ],
        "gens_im": [
            [
                [0.0, -0.49909476723179796, 0.35928326288611706],
                [0.49909476723179796, 0.0, -0.3256896814795567],
                [-0.35928326288611706, 0.3256896814795567, 0.0],
            ],
            [
                [0.0, 0.05557435556596378, -0.11769073842472885],
                [-0.05557435556596378, 0.0, 0.504106233753252],
                [0.11769073842472885, -0.504106233753252, 0.0],
            ],
            [
                [0.0, 0.30598168581701446, 0.2842444216355311],
                [-0.30598168581701446, 0.0, 0.6159352240913487],
                [-0.2842444216355311, -0.6159352240913487, 0.0],
            ],
        ],
        "theta": [-0.441697258310934, -0.21861610797800346, -0.20640624223331638],
        "weight": [
            [0.42146195206199727, 0.3457270759545679, -0.04505499435009886],
            [0.3457270759545679, 0.28999250067455545, -0.10046883805600401],
            [-0.04505499435009886, -0.10046883805600401, 0.6359348119417175],
        ],
    },
    "n3-d3-seed50": {
        "rho_re": [
            [0.16757494138567158, -0.05831417367112746, 0.005734216610687182],
            [-0.05831417367112746, 0.6286786829106387, 0.0314068874168963],
            [0.005734216610687182, 0.0314068874168963, 0.2037463757036898],
        ],
        "rho_im": [
            [0.0, -0.018262880991128057, -0.026388448718934712],
            [0.018262880991128057, 0.0, -0.12429927746557676],
            [0.026388448718934712, 0.12429927746557676, 0.0],
        ],
        "gens_re": [
            [
                [-0.11609868522721291, -0.4418191417140784, -0.3910412650946393],
                [-0.4418191417140784, -1.765368910970374, -0.42084296276252214],
                [-0.3910412650946393, -0.42084296276252214, 0.18383623115094994],
            ],
            [
                [0.18291727051618215, 0.5398318275308505, -0.30500258607954966],
                [0.5398318275308505, -0.36941452019719806, 0.5163473040879701],
                [-0.30500258607954966, 0.5163473040879701, -0.4097008368725327],
            ],
            [
                [1.0438791174081188, -0.18279558515653632, -0.34004651440180583],
                [-0.18279558515653632, 0.4178351280180249, 0.054214354754234924],
                [-0.34004651440180583, 0.054214354754234924, 0.45363458375938953],
            ],
        ],
        "gens_im": [
            [
                [0.0, 0.0019578613219241757, -0.48660342974878407],
                [-0.0019578613219241757, 0.0, 0.3602121410405217],
                [0.48660342974878407, -0.3602121410405217, 0.0],
            ],
            [
                [0.0, 0.24166545757501381, -0.023280070731163328],
                [-0.24166545757501381, 0.0, 0.3371500577350655],
                [0.023280070731163328, -0.3371500577350655, 0.0],
            ],
            [
                [0.0, 0.16665032188093615, -0.5575514536899484],
                [-0.16665032188093615, 0.0, -0.28303400979174864],
                [0.5575514536899484, 0.28303400979174864, 0.0],
            ],
        ],
        "theta": [0.14480061520667686, -0.40437279236315016, 0.1841973249921106],
        "weight": [
            [0.1568535948286282, -0.27010327900350406, 0.09692556258380822],
            [-0.27010327900350406, 0.4945519184738482, -0.04322268216264073],
            [0.09692556258380822, -0.04322268216264073, 0.5796647235580147],
        ],
    },
    "n3-d3-seed79": {
        "rho_re": [
            [0.1827270935738812, -0.08367120580403405, -0.18906328718037113],
            [-0.08367120580403405, 0.2560721580471811, 0.1315967491444104],
            [-0.18906328718037113, 0.1315967491444104, 0.5612007483789377],
        ],
        "rho_im": [
            [0.0, -0.02827929905174111, -0.15309845383737283],
            [0.02827929905174111, 0.0, 0.05292451912963234],
            [0.15309845383737283, -0.05292451912963234, 0.0],
        ],
        "gens_re": [
            [
                [-0.25800761910130576, -0.30458477324883, -0.36170108608000906],
                [-0.30458477324883, 1.0273677893764046, -0.5260080052836154],
                [-0.36170108608000906, -0.5260080052836154, 0.9857494451314456],
            ],
            [
                [-0.31766107193294174, 0.4685812707482931, -0.013649881139189666],
                [0.4685812707482931, -1.055554679481151, 0.13530385230992312],
                [-0.013649881139189666, 0.13530385230992312, 0.16822541715241504],
            ],
            [
                [0.9373661206081337, -0.20753143583368133, 0.3939645608798221],
                [-0.20753143583368133, 0.46736692494589677, -0.11087187037377312],
                [0.3939645608798221, -0.11087187037377312, -0.371041388053308],
            ],
        ],
        "gens_im": [
            [
                [0.0, -0.19381035347669726, -0.15456543436619105],
                [0.19381035347669726, 0.0, -0.06412072634576485],
                [0.15456543436619105, 0.06412072634576485, 0.0],
            ],
            [
                [0.0, -0.9291037604886445, 0.6068669792706082],
                [0.9291037604886445, 0.0, 0.048341763871757724],
                [-0.6068669792706082, -0.048341763871757724, 0.0],
            ],
            [
                [0.0, 0.03872561567205842, -0.1228088195721407],
                [-0.03872561567205842, 0.0, 0.43048278441390186],
                [0.1228088195721407, -0.43048278441390186, 0.0],
            ],
        ],
        "theta": [-0.3994185109766736, -0.34190872333235844, 0.07111673019388176],
        "weight": [
            [0.29450892170517434, 0.17065280419778855, -0.3410045947475634],
            [0.17065280419778855, 0.650391008280086, -0.0633113646049346],
            [-0.3410045947475634, -0.0633113646049346, 0.42753669013796464],
        ],
    },
    "n3-d3-seed118": {
        "rho_re": [
            [0.22919144515964304, 0.05838439635605191, -0.008348891726622983],
            [0.05838439635605191, 0.42364499209648004, -0.06143377058908795],
            [-0.008348891726622983, -0.06143377058908795, 0.34716356274387694],
        ],
        "rho_im": [
            [0.0, -0.020501403150236262, -0.11700419316667189],
            [0.020501403150236262, 0.0, -0.2063795658887464],
            [0.11700419316667189, 0.2063795658887464, 0.0],
        ],
        "gens_re": [
            [
                [0.9290592703310298, 0.5213455834417696, -0.7779502961083856],
                [0.5213455834417696, 0.5749992571188997, 0.05241177349936685],
                [-0.7779502961083856, 0.05241177349936685, 0.6576690220926051],
            ],
            [
                [0.46216023448380533, 0.9480293812695751, 0.033876181579264114],
                [0.9480293812695751, -0.7076936224318904, 0.5464902031314551],
                [0.033876181579264114, 0.5464902031314551, 1.5720735775313404],
            ],
            [
                [0.11092796964535682, 0.35427795791496103, 0.16828349677899307],
                [0.35427795791496103, 0.25485727880026066, -0.07520097374020443],
                [0.16828349677899307, -0.07520097374020443, -0.3634491146440442],
            ],
        ],
        "gens_im": [
            [
                [0.0, 0.39146585383466415, -0.5274981613803101],
                [-0.39146585383466415, 0.0, -0.3052106804701828],
                [0.5274981613803101, 0.3052106804701828, 0.0],
            ],
            [
                [0.0, -0.12292311619090288, -0.6248564015198758],
                [0.12292311619090288, 0.0, 0.7733219148543179],
                [0.6248564015198758, -0.7733219148543179, 0.0],
            ],
            [
                [0.0, 0.3622087809329608, 0.6856109126979959],
                [-0.3622087809329608, 0.0, -0.15621685869420224],
                [-0.6856109126979959, 0.15621685869420224, 0.0],
            ],
        ],
        "theta": [0.3975731480947894, 0.1632893938176876, 0.2720139542256361],
        "weight": [
            [0.19234810616146805, 0.19821346985214913, -0.09819705415248808],
            [0.19821346985214913, 0.8673344692687432, 0.08674153885259718],
            [-0.09819705415248808, 0.08674153885259718, 0.10339632535391069],
        ],
    },
    "n4-d3-seed95": {
        "rho_re": [
            [0.23699451207965888, 0.08419218050191472, -0.02737499893902243, 0.05104925265623727],
            [0.08419218050191472, 0.15991305418949367, -0.10577128633428301, 0.08816121266299318],
            [-0.02737499893902243, -0.10577128633428301, 0.23901377919348832, -0.0386791091892987],
            [0.05104925265623727, 0.08816121266299318, -0.0386791091892987, 0.3640786545373592],
        ],
        "rho_im": [
            [0.0, -0.06978747762546657, 0.044949896089947816, -0.05298319454926028],
            [0.06978747762546657, 0.0, 0.060501746680269274, -0.026060856182888514],
            [-0.044949896089947816, -0.060501746680269274, 0.0, 0.08423873592537633],
            [0.05298319454926028, 0.026060856182888514, -0.08423873592537633, 0.0],
        ],
        "gens_re": [
            [
                [-0.023254163717644348, -0.003939708001109987, -0.18217502513369166, 0.14877637442177208],
                [-0.003939708001109987, -0.12029611607764079, 0.3458961961879299, -0.18651291738428777],
                [-0.18217502513369166, 0.3458961961879299, -0.8339728388608664, 0.524042602100063],
                [0.14877637442177208, -0.18651291738428777, 0.524042602100063, -0.3129474839161124],
            ],
            [
                [-0.7334087387707326, -0.02267256705654236, -0.11132481637716554, 0.14262412842672004],
                [-0.02267256705654236, 0.19811012267336067, 0.4723068695654834, 0.33067078081630885],
                [-0.11132481637716554, 0.4723068695654834, 0.7174720277002874, 0.13812208392074243],
                [0.14262412842672004, 0.33067078081630885, 0.13812208392074243, -0.476059154265715],
            ],
            [
                [0.4455639410896606, -0.6124110864295681, 0.7915851216951568, -0.22809838679441605],
                [-0.6124110864295681, 0.3967459088501886, 0.17212640837737941, -0.6666247352480343],
                [0.7915851216951568, 0.17212640837737941, -0.01609807134490041, 0.31846430463652575],
                [-0.22809838679441605, -0.6666247352480343, 0.31846430463652575, -0.13221255469448476],
            ],
        ],
        "gens_im": [
            [
                [0.0, 0.027834140568350152, 0.11889382486808195, 0.13948927668698285],
                [-0.027834140568350152, 0.0, 0.19502111291743313, -0.29257799535504],
                [-0.11889382486808195, -0.19502111291743313, 0.0, -0.5848496966961066],
                [-0.13948927668698285, 0.29257799535504, 0.5848496966961066, 0.0],
            ],
            [
                [0.0, -0.26374442866416486, -0.3919285727573936, -0.5701914685688798],
                [0.26374442866416486, 0.0, 0.4342801094688735, 0.07002173312054047],
                [0.3919285727573936, -0.4342801094688735, 0.0, 0.14263862415034442],
                [0.5701914685688798, -0.07002173312054047, -0.14263862415034442, 0.0],
            ],
            [
                [0.0, -0.310983290459293, 0.05909825233537766, 0.3771226373334435],
                [0.310983290459293, 0.0, 0.7168450108036326, 0.04711205569606661],
                [-0.05909825233537766, -0.7168450108036326, 0.0, 0.1860730550622939],
                [-0.3771226373334435, -0.04711205569606661, -0.1860730550622939, 0.0],
            ],
        ],
        "theta": [0.02199772775298725, 0.07689401056730372, -0.3954802287475071],
        "weight": [
            [0.5540442340415598, -0.07363797255354307, 0.22322718435172528],
            [-0.07363797255354307, 0.5336265650453541, 0.13083001196286032],
            [0.22322718435172528, 0.13083001196286032, 0.13911466440208026],
        ],
    },
}


# The ninth draw, shape (n, d, rank, W) = (6, 2, 6, identity), of a `holevo_solve`
# benchmark cycle drawn from numpy's default_rng(0).  Its last barrier stage
# (t ~ 1e9) reached a point where f carries no more digits: Armijo tests passed
# with f_new == f_now and the stage spent its whole inner budget, 131 Newton
# steps in all, for HB = 2.5542544350270115.
STALL_DRAW = {
    "rho_re": [
        [0.2713563564551166, -0.06475370036631198, 0.01981273704974581,
         0.020797580736320213, 0.019312687232407387, 0.0566422524986111],
        [-0.06475370036631198, 0.16443532956188442, -0.025592847459845733,
         0.06304311562860401, -0.011721191974249905, -0.0513023968853236],
        [0.01981273704974581, -0.025592847459845733, 0.1387002308475193,
         -0.03160447000557197, -0.02189393228865546, 0.03532498706399131],
        [0.020797580736320213, 0.06304311562860401, -0.03160447000557197,
         0.1551614347262214, -0.012049826744691764, 0.02573985828295271],
        [0.019312687232407387, -0.011721191974249905, -0.02189393228865546,
         -0.012049826744691764, 0.14088099461235085, 0.009783008370659261],
        [0.0566422524986111, -0.0513023968853236, 0.03532498706399131,
         0.02573985828295271, 0.009783008370659261, 0.12946565379690742],
    ],
    "rho_im": [
        [0.0, 0.07984829608880956, 0.01740260370855919,
         0.060821994570963045, -0.013561093367252334, 0.010833165101065412],
        [-0.07984829608880956, 0.0, -0.010885552300467307,
         0.03190216499656539, -0.046004039445517, -0.026791399874716085],
        [-0.01740260370855919, 0.010885552300467307, 0.0,
         0.049862588347934375, -0.029696990551305827, 0.00399397995557651],
        [-0.060821994570963045, -0.03190216499656539, -0.049862588347934375,
         0.0, 0.007561472693206025, 0.008046341938663569],
        [0.013561093367252334, 0.046004039445517, 0.029696990551305827,
         -0.007561472693206025, 0.0, 0.01437586013324797],
        [-0.010833165101065412, 0.026791399874716085, -0.00399397995557651,
         -0.008046341938663569, -0.01437586013324797, 0.0],
    ],
    "gens_re": [
        [
            [0.8075824483114157, -0.053290684159640056, -0.07143805545081308,
             0.047430475805259505, 0.13183375247699572, -0.2213770226910978],
            [-0.053290684159640056, 0.6514427935857876, 0.6674662631855363,
             -0.04968955957889633, -0.029020977401025536, -0.3540907100444156],
            [-0.07143805545081308, 0.6674662631855363, 0.34785674477693274,
             0.1342100553712681, 0.03782916209741623, -0.0058653490887103235],
            [0.047430475805259505, -0.04968955957889633, 0.1342100553712681,
             0.31923765171074314, 0.26867421278622194, -0.5580581513864675],
            [0.13183375247699572, -0.029020977401025536, 0.03782916209741623,
             0.26867421278622194, 0.25742496764676176, -0.6389098081051703],
            [-0.2213770226910978, -0.3540907100444156, -0.0058653490887103235,
             -0.5580581513864675, -0.6389098081051703, 0.43334884613688474],
        ],
        [
            [-0.6012085695094168, -0.2478544281870599, 0.16671323772712726,
             -0.014813786074085086, -0.32920831085545094, -0.09541850389435982],
            [-0.2478544281870599, -0.5105553035742154, 0.06895795829834876,
             0.11777637343879778, -0.3965884664374699, 0.31538139879307553],
            [0.16671323772712726, 0.06895795829834876, 0.05037882332683512,
             0.20961980663727703, -0.24487006557832314, 0.04002682892571219],
            [-0.014813786074085086, 0.11777637343879778, 0.20961980663727703,
             -0.34283113860514897, 0.02076437138753835, -0.02473968119993372],
            [-0.32920831085545094, -0.3965884664374699, -0.24487006557832314,
             0.02076437138753835, 0.07275178595104867, 0.46130621641669384],
            [-0.09541850389435982, 0.31538139879307553, 0.04002682892571219,
             -0.02473968119993372, 0.46130621641669384, -0.17548297091024326],
        ],
    ],
    "gens_im": [
        [
            [0.0, -0.2454115131404668, 0.370299827605082,
             -0.16982754109273934, -0.6014723101647254, -0.13722122827404273],
            [0.2454115131404668, 0.0, 0.07540321369577156,
             -0.0026528081434846152, 0.4014029360289203, 0.1301288361651235],
            [-0.370299827605082, -0.07540321369577156, 0.0,
             -0.04876396739771257, -0.13218025140520231, -0.36031155510215734],
            [0.16982754109273934, 0.0026528081434846152, 0.04876396739771257,
             0.0, -0.03494701579534564, 0.4437776359818697],
            [0.6014723101647254, -0.4014029360289203, 0.13218025140520231,
             0.03494701579534564, 0.0, -0.06245120887327542],
            [0.13722122827404273, -0.1301288361651235, 0.36031155510215734,
             -0.4437776359818697, 0.06245120887327542, 0.0],
        ],
        [
            [0.0, -0.3554443968036906, 0.21784879215881678,
             0.08817535584206516, 0.025904794985431787, -0.3441200900996102],
            [0.3554443968036906, 0.0, 0.19316980234807551,
             0.23263832342226756, 0.19097230791412437, 0.10948995870313581],
            [-0.21784879215881678, -0.19316980234807551, 0.0,
             0.35018812421624246, -0.16257672831806472, 0.1905331472091814],
            [-0.08817535584206516, -0.23263832342226756, -0.35018812421624246,
             0.0, 0.7342335763264229, -0.5740207788516304],
            [-0.025904794985431787, -0.19097230791412437, 0.16257672831806472,
             -0.7342335763264229, 0.0, 0.5891707715599918],
            [0.3441200900996102, -0.10948995870313581, -0.1905331472091814,
             0.5740207788516304, -0.5891707715599918, 0.0],
        ],
    ],
    "theta": [-0.30225942905706216, 0.09863016951473624],
    "weight": [[1.0, 0.0], [0.0, 1.0]],
}


def frozen_draw(draw):
    rho = DensityMatrix(np.array(draw["rho_re"]) + 1j * np.array(draw["rho_im"]))
    gens = [HermitianOperator(np.array(re) + 1j * np.array(im))
            for re, im in zip(draw["gens_re"], draw["gens_im"])]
    return unitary_family(rho, gens), np.array(draw["theta"]), np.array(draw["weight"])


def qcrb_and_h_x0(model, theta, w_mat):
    """Tr[W F^-1] and Tr[W F^-1] + TrAbs[sqrt(W) F^-1 G F^-1 sqrt(W)], with
    F + iG = Tr[rho L_i L_j] from the SLDs."""
    res = qfim(model, theta)
    rho = model.evaluate(theta).entries
    slds = [s.entries for s in res.slds]
    t = np.array([[np.trace(rho @ a @ b) for b in slds] for a in slds])
    finv = np.linalg.inv(t.real)
    lam, u = np.linalg.eigh(w_mat)
    sqrt_w = (u * np.sqrt(np.clip(lam, 0, None))) @ u.T
    qcrb = float(np.trace(w_mat @ finv))
    inner = sqrt_w @ finv @ t.imag @ finv @ sqrt_w
    return qcrb, qcrb + float(np.linalg.svd(inner, compute_uv=False).sum())


class TestRankDeficientWeight:
    @pytest.mark.parametrize("name", sorted(DEFICIENT_DRAWS))
    def test_hb_inside_bracket(self, name):
        model, theta, w_mat = frozen_draw(DEFICIENT_DRAWS[name])
        qcrb, h_x0 = qcrb_and_h_x0(model, theta, w_mat)
        sol = holevo_bound(model, theta, WeightMatrix(w_mat))
        assert qcrb * (1 - 1e-6) <= sol.value <= h_x0 * (1 + 1e-6)
        assert abs(sol.h_x0 - h_x0) <= 1e-9 * h_x0
        assert sol.residuals["v_minus_z_min_eig"] >= -1e-12


class TestLastStageStall:
    def test_flat_stage_ends_without_spending_its_budget(self):
        model, theta, w_mat = frozen_draw(STALL_DRAW)
        qcrb, h_x0 = qcrb_and_h_x0(model, theta, w_mat)
        sol = holevo_bound(model, theta, WeightMatrix(w_mat))
        assert sol.iterations <= 60
        assert abs(sol.value - 2.5542544350270115) <= 1e-9 * sol.value
        assert qcrb * (1 - 1e-6) <= sol.value <= h_x0 * (1 + 1e-6)


class TestSchurBarrier:
    def test_derivatives_match_finite_differences(self):
        # n = 3 full rank: M has 9 rows; d = q = 2 parameters, k = 4 directions
        rng = np.random.default_rng(5)
        nr, q, k = 9, 2, 4
        m0 = rng.normal(size=(nr, q)) + 1j * rng.normal(size=(nr, q))
        g_mat = rng.normal(size=(nr, k)) + 1j * rng.normal(size=(nr, k))
        barrier = SchurBarrier(m0, g_mat, rng.uniform(0.2, 1.0, size=q))
        c_mat = 0.3 * rng.normal(size=(q, k))
        m = m0 + g_mat @ c_mat.T
        z = m.conj().T @ m
        v_mat = z.real + (np.linalg.norm(z.imag, 2) + 0.5) * np.eye(q)
        t = 3.0
        x0 = np.concatenate([v_mat[np.triu_indices(q)], c_mat.ravel()])

        def f(x):
            return barrier.barrier_value(*barrier.split(x), t)

        grad, hess = barrier.newton_system(v_mat, c_mat, t)
        eye = np.eye(len(x0))
        h = 1e-5
        fd_grad = np.array([(f(x0 + h * e) - f(x0 - h * e)) / (2 * h) for e in eye])
        assert np.abs(fd_grad - grad).max() <= 1e-7 * np.abs(grad).max()
        h = 1e-4
        fd_hess = np.array([
            [(f(x0 + h * a + h * b) - f(x0 + h * a - h * b)
              - f(x0 - h * a + h * b) + f(x0 - h * a - h * b)) / (4 * h * h) for b in eye]
            for a in eye
        ])
        assert np.abs(fd_hess - hess).max() <= 1e-5 * np.abs(hess).max()


class TestSandwich:
    def test_commuting_model_hb_equals_qcrb(self):
        gens = [
            tensor_product(half(PAULI_Z), identity(2)),
            tensor_product(identity(2), half(PAULI_Z)),
        ]
        model = unitary_family(tensor_product(PLUS, PLUS), gens)
        report = hb_sandwich(model, [0.3, 0.7], WeightMatrix.identity(2))
        assert report.r_measure <= 1e-8
        assert abs(report.hb - report.qcrb) <= 1e-5 * report.qcrb

    def test_maximal_incompatibility_ratio_at_most_two(self):
        report = hb_sandwich(xy_model(), [0.0, 0.0], WeightMatrix.identity(2))
        assert abs(report.r_measure - 1.0) < 1e-8
        # the interior point approaches the optimum from the feasible side,
        # so the ratio can exceed 2 by the duality gap only
        assert report.ratio <= 2.0 + 1e-5
        assert abs(report.ratio - 2.0) < 1e-5

    def test_single_parameter_ratio_is_one(self):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        report = hb_sandwich(model, [0.5], WeightMatrix.identity(1))
        assert abs(report.ratio - 1.0) < 1e-6

    def test_random_models_smoke(self):
        rng = np.random.default_rng(100)
        for k in range(10):
            dim = 2 if k % 2 == 0 else 3
            model = random_two_parameter_model(rng, dim)
            theta = rng.normal(scale=0.3, size=2)
            report = hb_sandwich(model, theta, WeightMatrix.identity(2))
            assert report.qcrb - report.tolerance <= report.hb
            assert report.hb <= (1 + report.r_measure) * report.qcrb + report.tolerance
