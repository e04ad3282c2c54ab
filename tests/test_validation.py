from nlqsim import validation


def test_every_check_function_is_registered_exactly_once():
    defined = sorted(name for name, obj in vars(validation).items()
                     if name.startswith("check_") and callable(obj)
                     and obj.__module__ == validation.__name__)
    assert sorted(check.__name__ for check in validation.ALL_CHECKS) == defined
