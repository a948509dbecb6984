import importlib
import inspect
import pkgutil

import integrable
from integrable.errors import ConvergenceError, IntegrableError, ParameterError


def _package_exception_classes():
    for info in pkgutil.iter_modules(integrable.__path__):
        module = importlib.import_module(f"integrable.{info.name}")
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__.startswith("integrable.")
            ):
                yield obj


def test_every_exception_is_a_parameter_or_convergence_error():
    roots = {IntegrableError, ParameterError, ConvergenceError}
    leaves = set(_package_exception_classes()) - roots
    assert len(leaves) > 20
    for cls in leaves:
        assert issubclass(cls, ParameterError) != issubclass(cls, ConvergenceError), cls
    # IntegrableError is the only class that derives from Exception directly.
    for cls in leaves | roots - {IntegrableError}:
        assert Exception not in cls.__bases__, cls
