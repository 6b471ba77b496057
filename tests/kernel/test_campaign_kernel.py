"""Campaign integration of the compiled kernel: the ``kernel=``
parameter of run_campaign, the serial and pool compiled routes, the
fabric refusal, and the ``--kernel`` CLI flag.  The campaigns mix
smoke cells, which the compiled kernel runs on the interpreter, with
cells it compiles."""

import pytest

import repro.chaos
from repro.__main__ import main
from repro.chaos import run_campaign, smoke_campaign
from repro.chaos.campaign import KERNELS, run_cell
from repro.errors import ResilienceError
from repro.kernel.differential import canonical_result

from .compiled_cells import (
    COMPILING_CELL,
    CellsCampaign,
    count_compiled_runs,
    mixed_campaign,
)


def test_kernels_constant():
    assert KERNELS == ("interp", "compiled")


def test_serial_reports_byte_identical(tmp_path):
    interp = run_campaign(mixed_campaign(2), kernel="interp")
    with count_compiled_runs(tmp_path) as built:
        compiled = run_campaign(mixed_campaign(2), kernel="compiled")
    assert built() == 2
    assert interp.render() == compiled.render()
    assert [r.outcome for r in interp.records] == [
        r.outcome for r in compiled.records
    ]


def test_pool_backend_reports_byte_identical(tmp_path):
    interp = run_campaign(mixed_campaign(2), workers=2, kernel="interp")
    with count_compiled_runs(tmp_path) as built:
        compiled = run_campaign(
            mixed_campaign(2), workers=2, kernel="compiled"
        )
    assert built() == 2
    assert interp.render() == compiled.render()


def test_run_cell_kernel_parity(tmp_path):
    smoke_cell = list(smoke_campaign().cells())[0]
    for cell, builds in ((smoke_cell, 0), (COMPILING_CELL, 1)):
        interp = run_cell(cell, kernel="interp")
        with count_compiled_runs(tmp_path) as built:
            compiled = run_cell(cell, kernel="compiled")
        assert built() == builds
        assert interp.outcome == compiled.outcome
        assert interp.detail == compiled.detail
        assert canonical_result(interp.result) == canonical_result(
            compiled.result
        )


def test_unknown_kernel_rejected():
    with pytest.raises(ResilienceError):
        run_campaign(smoke_campaign(), limit=1, kernel="vectorized")
    with pytest.raises(ResilienceError):
        run_cell(list(smoke_campaign().cells())[0], kernel="nope")


def test_fabric_backend_refuses_compiled_kernel():
    """Fabric workers negotiate cell JSON only — they cannot receive a
    kernel choice, so asking for one must fail loudly up front rather
    than silently running interp on the far side."""
    with pytest.raises(ResilienceError):
        run_campaign(
            smoke_campaign(),
            limit=1,
            backend="fabric",
            kernel="compiled",
        )


def test_chaos_run_cli_kernel_flag(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(
        repro.chaos,
        "smoke_campaign",
        lambda seed=0: CellsCampaign([COMPILING_CELL]),
    )
    with count_compiled_runs(tmp_path) as built:
        code = main(
            ["chaos", "run", "--smoke", "--cells", "1", "--kernel",
             "compiled"]
        )
    capsys.readouterr()
    assert code == 0
    assert built() == 1


def test_kernel_cli_dump(capsys):
    assert main(["kernel", "--dump", "s_helper"]) == 0
    out = capsys.readouterr().out
    assert "content-hash: sha256:" in out
    assert "_K_make" in out


def test_kernel_cli_dump_unknown_exits_2(capsys):
    assert main(["kernel", "--dump", "definitely-not-an-automaton"]) == 2
    assert "no compiled automaton" in capsys.readouterr().err


def test_kernel_cli_list(capsys):
    assert main(["kernel", "--list"]) == 0
    out = capsys.readouterr().out
    assert "compiled" in out
    assert "interp" in out  # fallback rows state their kernel
