"""``verify_certificate`` stays an independent check of the certificate
builders: the verifier, and the reader's target check, call no pontcalc
function that ``_newton_certificate`` or ``_nilpotent_certificate`` calls,
directly or through the functions they call, apart from the certificate
dataclasses.  ``math`` and the builtins are not pontcalc code and may be
shared.  So a mistake in a builder's helper, such as a mirrored sign in
its binomial rows, cannot cancel between the certificate and its proof."""

import ast
import inspect
import sys
import textwrap

from pontcalc import relations

DATACLASSES = {relations.MembershipCertificate, relations.OrbitTable}


def pontcalc_calls(function, seen=None):
    """The pontcalc functions and classes ``function`` calls by name,
    followed through every pontcalc function it reaches, dataclasses
    excluded and not followed."""
    seen = set() if seen is None else seen
    module = sys.modules[function.__module__]
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        target = getattr(module, node.func.id, None)
        if (callable(target) and getattr(target, "__module__", "").startswith("pontcalc")
                and target not in DATACLASSES and target not in seen):
            seen.add(target)
            if inspect.isfunction(target):
                pontcalc_calls(target, seen)
    return seen


def test_the_verifier_calls_nothing_a_builder_calls():
    builders = pontcalc_calls(relations._newton_certificate) | pontcalc_calls(relations._nilpotent_certificate)
    verifier = set()
    for check in (relations.verify_certificate, relations._verify_on_orbits, relations._target_json):
        verifier |= {check} | pontcalc_calls(check)
    # neither side is empty, so the check is not vacuous
    assert relations._signed_binomials in builders
    assert {relations._verify_on_orbits, relations._binomial_row} <= verifier
    assert not builders & verifier, sorted(f.__name__ for f in builders & verifier)


def test_the_reader_derives_its_target_with_the_verifier_s_row():
    # the file's target is checked against the reader's own closed form
    assert relations._binomial_row in pontcalc_calls(relations._target_json)
    assert relations._target_json in pontcalc_calls(relations.MembershipCertificate.to_json_dict)
