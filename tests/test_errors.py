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


# Every error class the package defines below the roots, by module: the
# enumeration must find each one, so it cannot pass on an empty set.
DEFINED = {
    "cli": {"NonFiniteResult"},
    "errors": {"RateOutOfRange"},
    "models": {"NonConvergedQuadrature"},
    "sixvertex": {"PoleInSpectralLadder", "InconsistentBoundary"},
    "tensor": {"DimensionMismatch", "StateSpaceTooLarge"},
    "uqsl2": {"InvalidDeformation"},
    "ybe": {"PoleInDenominator", "EvaluationPole", "NotRegular"},
}


def test_every_exception_is_a_parameter_or_convergence_error():
    roots = {IntegrableError, ParameterError, ConvergenceError}
    leaves = set(_package_exception_classes()) - roots
    found = {(cls.__module__, cls.__name__) for cls in leaves}
    for module, names in DEFINED.items():
        assert {(f"integrable.{module}", name) for name in names} <= found, module
    for cls in leaves:
        assert issubclass(cls, ParameterError) != issubclass(cls, ConvergenceError), cls
    # IntegrableError is the only class that derives from Exception directly.
    for cls in leaves | roots - {IntegrableError}:
        assert Exception not in cls.__bases__, cls
