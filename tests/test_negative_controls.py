"""Negative controls: plant one defect, and the checker that should see it exits 1.

Each case first runs the checker unplanted (exit 0), so a control that
passes can only mean the checker caught the defect.
"""

from dp4jigsaw import constants, surface
from dp4jigsaw.cli import main


def run_cli(args, outdir):
    return main(["--output", str(outdir)] + args)


def test_normal_form_divisor_bound_off_by_one(tmp_path, monkeypatch):
    args = ["compare", "--bound", "50"]
    assert run_cli(args, tmp_path) == 0
    normal_form = surface._normal_form_z

    def drops_d_equal_to_bound(bound):
        for m, d in normal_form(bound):
            yield m, d[d < bound]

    monkeypatch.setattr(surface, "_normal_form_z", drops_d_equal_to_bound)
    assert run_cli(args, tmp_path) == 1


def test_surface_equation_coefficient_in_modp(tmp_path, monkeypatch):
    assert run_cli(["modp"], tmp_path) == 0
    # A sign or a scale on one term is a rescaling of coordinates and keeps
    # p^2 + p; a zero coefficient of x1*x3 changes the surface.
    monkeypatch.setattr(surface, "_forms", lambda x0, x1, x2, x3, x4: (
        x0 * x3 - x2 * x4, x0 * x1 + 0 * x1 * x3 + x2 * x2))
    assert run_cli(["modp"], tmp_path) == 1


def test_wrong_zeta_k_2_in_constant(tmp_path, monkeypatch):
    args = ["constant", "--field", "Q", "--prime-bound", "1000"]
    assert run_cli(args, tmp_path) == 0
    zeta2 = constants.dedekind_zeta2

    def one_percent_high(inv):
        value, err = zeta2(inv)
        return 1.01 * value, err

    monkeypatch.setattr(constants, "dedekind_zeta2", one_percent_high)
    assert run_cli(args, tmp_path) == 1
