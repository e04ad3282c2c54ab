from nlqsim import validation


def test_every_check_function_is_registered_exactly_once():
    defined = sorted(name for name, obj in vars(validation).items()
                     if name.startswith("check_") and callable(obj)
                     and obj.__module__ == validation.__name__)
    assert sorted(check.__name__ for check in validation.ALL_CHECKS) == defined


def test_audit_margin_reports_the_margin_it_asserts_positive():
    # the margin is 0 at t = 0 by construction, so a minimum that includes
    # it reads 0 on working code
    res = validation.check_audit_margin(validation.Context(quick=True))
    assert res.ok
    reported = float(res.detail.split("min margin over t > 0 = ")[1].split(",")[0])
    assert reported > 0.0
