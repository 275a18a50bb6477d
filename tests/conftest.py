import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps the function `module.name` in every
    bubblering module that binds it, and returns the list of the argument
    tuples of its calls."""

    def count(module, name):
        orig = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "bubblering":
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
        return calls

    return count
