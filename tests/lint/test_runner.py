"""The lint runner end to end on a module with findings.

The rule tests build their units by hand and ``test_package_clean``
only sees a clean package.  This test writes a module with its own
schema to disk, plants one violation per step-model rule in it, and
lets the runner's unit builder read the file, take the module's
namespace and extract the automata before every static and semantic
pass runs over the unit.
"""

import importlib.util
import textwrap

from repro.lint.passes import PassContext, resolve_passes
from repro.lint.runner import _build_unit

PLANTED = textwrap.dedent(
    """\
    from repro.algorithms._schema import ModuleSchema, RegisterSchema
    from repro.runtime import ops

    PREFIX = "fam/"

    LINT_SCHEMA = ModuleSchema(
        c_automata=("planted_factory",),
        registers=RegisterSchema(prefixes=(PREFIX,), single_writer=(PREFIX,)),
    )


    def planted_factory(rounds):
        def factory(ctx):
            me = ctx.pid.index
            advice = yield ops.QueryFD()
            yield ops.CompareAndSwap(f"{PREFIX}0", None, me)
            yield ops.Write("other/x", advice)
            spins = rounds
            while spins:
                spins -= 1
                yield ops.Nop()
            yield ops.Decide(me)
            yield ops.Nop()

        return factory
    """
)

#: (rule, line, message, id) of every finding, in report order.
EXPECTED = [
    (
        "CNoQuery",
        15,
        "planted_factory: C-process code yields QueryFD; only "
        "S-processes may consult the detector",
        "7272c24f13dd",
    ),
    (
        "NoCASInFaithful",
        16,
        "planted_factory: yields CompareAndSwap in a paper-faithful "
        "module; allowlist it in the module's lint schema if the "
        "deviation is deliberate and documented",
        "ccf7c01bfdcf",
    ),
    (
        "SingleWriter",
        16,
        "planted_factory: write to 'fam/0' in single-writer family "
        "'fam/' does not interpolate the process's own index "
        "(`ctx.pid.index`); another process's register could be "
        "overwritten",
        "efa13697ca58",
    ),
    (
        "RegisterNaming",
        17,
        "planted_factory: register 'other/x' is not declared by the "
        "module's register schema",
        "09e9e7391bea",
    ),
    (
        "BoundedLoops",
        19,
        "planted_factory: while-loop body never reads shared memory or "
        "advice; it cannot terminate in response to helper progress "
        "(wait-freedom smell)",
        "159211fd36dd",
    ),
    (
        "DecideOnce",
        22,
        "planted_factory: Decide is not in tail position; a decided "
        "C-process takes only null steps",
        "9a7f67effce5",
    ),
]


def test_runner_reports_every_planted_violation(tmp_path):
    path = tmp_path / "planted_protocol.py"
    path.write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("planted_protocol", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    unit = _build_unit("planted_protocol", module, module.LINT_SCHEMA)
    ctx = PassContext(units=[unit])
    findings = []
    for lint_pass in resolve_passes():
        if "battery" in lint_pass.evidence_required:
            continue
        findings.extend(lint_pass.run(ctx).findings)
    findings.sort(key=lambda finding: finding.sort_key())

    assert {finding.file for finding in findings} == {str(path)}
    assert {finding.process_kind for finding in findings} == {"C"}
    assert [
        (finding.rule, finding.line, finding.message, finding.id)
        for finding in findings
    ] == EXPECTED
