"""User-defined functions and aggregates (Sections 2.1 and 2.3).

The paper adopts Postgres-style extensibility: users register functions with
explicit input and output signatures, and the engine links them in and calls
them as needed.  In this Python engine "linking object code" becomes
registering a Python callable; everything else — the typed define-function
contract, UDFs calling queries and other UDFs, user-defined aggregates, and
the use of integer→integer UDFs to *enhance* array coordinates — is kept.

The paper's running example::

    Define function Scale10 (integer I, integer J)
        returns (integer K, integer L) file_handle

becomes::

    scale10 = define_function(
        "Scale10",
        inputs=[("I", "integer"), ("J", "integer")],
        outputs=[("K", "integer"), ("L", "integer")],
        fn=lambda i, j: (10 * i, 10 * j),
        inverse=lambda k, l: (k // 10, l // 10),
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .datatypes import ScalarType, get_type
from .errors import SchemaError, TypeMismatchError, UnknownFunctionError

__all__ = [
    "UserFunction",
    "UserAggregate",
    "FunctionRegistry",
    "functions",
    "define_function",
    "define_function_from_file",
    "define_aggregate",
    "get_function",
    "get_aggregate",
    "BUILTIN_AGGREGATES",
]

Signature = tuple[tuple[str, ScalarType], ...]


def _signature(parts: Iterable[tuple[str, "str | ScalarType"]]) -> Signature:
    sig = tuple((name, get_type(t)) for name, t in parts)
    names = [n for n, _ in sig]
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate parameter names in signature {names}")
    return sig


@dataclass(frozen=True)
class UserFunction:
    """A registered scalar function with typed input/output signatures.

    ``fn`` receives one positional argument per input and returns either a
    single value (one output) or a tuple matching the output signature.
    ``inverse``, when provided, makes the function usable as a coordinate
    enhancement that supports *addressing* through the new coordinates
    (``A{k, l}``): the engine inverts the mapping back to basic integer
    coordinates.
    """

    name: str
    inputs: Signature
    outputs: Signature
    fn: Callable[..., Any]
    inverse: Optional[Callable[..., Any]] = None

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def __call__(self, *args: Any) -> Any:
        if len(args) != len(self.inputs):
            raise TypeMismatchError(
                f"function {self.name!r} expects {len(self.inputs)} arguments, "
                f"got {len(args)}"
            )
        checked = [t.validate(a) for (_, t), a in zip(self.inputs, args)]
        result = self.fn(*checked)
        return self._validate_result(result)

    def invert(self, *args: Any) -> Any:
        if self.inverse is None:
            raise UnknownFunctionError(
                f"function {self.name!r} has no registered inverse"
            )
        result = self.inverse(*args)
        if len(self.inputs) == 1 and not isinstance(result, tuple):
            result = (result,)
        return result

    def _validate_result(self, result: Any) -> Any:
        outs = self.outputs
        if len(outs) == 1:
            value = result[0] if isinstance(result, tuple) and len(result) == 1 else result
            return outs[0][1].validate(value)
        if not isinstance(result, tuple) or len(result) != len(outs):
            raise TypeMismatchError(
                f"function {self.name!r} must return {len(outs)} values, "
                f"got {result!r}"
            )
        return tuple(t.validate(v) for (_, t), v in zip(outs, result))


@dataclass(frozen=True)
class UserAggregate:
    """A Postgres-style user-defined aggregate.

    Defined by an initial state, a transition function folding one value
    into the state, and a final function mapping state to result.  The
    engine's Aggregate operator (Section 2.2.2) accepts any registered
    aggregate by name.  ``merge`` combines two partial states; an
    aggregate that has one is *algebraic* and the grid folds it where
    the data is, one without (``None``) is holistic and sees every value
    at the coordinator.
    """

    name: str
    initial: Callable[[], Any]
    transition: Callable[[Any, Any], Any]
    final: Callable[[Any], Any] = field(default=lambda s: s)
    merge: Optional[Callable[[Any, Any], Any]] = None

    def compute(self, values: Iterable[Any]) -> Any:
        state = self.initial()
        for v in values:
            state = self.transition(state, v)
        return self.final(state)


class FunctionRegistry:
    """Process-wide registry of UDFs and aggregates."""

    def __init__(self) -> None:
        self._functions: dict[str, UserFunction] = {}
        self._aggregates: dict[str, UserAggregate] = {}
        for agg in BUILTIN_AGGREGATES:
            self._aggregates[agg.name] = agg

    # -- scalar functions ----------------------------------------------------

    def define_function(
        self,
        name: str,
        inputs: Sequence[tuple[str, "str | ScalarType"]],
        outputs: Sequence[tuple[str, "str | ScalarType"]],
        fn: Callable[..., Any],
        inverse: Optional[Callable[..., Any]] = None,
        replace: bool = False,
    ) -> UserFunction:
        if name in self._functions and not replace:
            raise SchemaError(f"function {name!r} is already defined")
        f = UserFunction(
            name=name,
            inputs=_signature(inputs),
            outputs=_signature(outputs),
            fn=fn,
            inverse=inverse,
        )
        self._functions[name] = f
        return f

    def get_function(self, name: str) -> UserFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise UnknownFunctionError(f"no function named {name!r}") from None

    # -- aggregates ------------------------------------------------------------

    def define_aggregate(
        self,
        name: str,
        initial: Callable[[], Any],
        transition: Callable[[Any, Any], Any],
        final: Callable[[Any], Any] = lambda s: s,
        replace: bool = False,
    ) -> UserAggregate:
        key = name.lower()
        if key in self._aggregates and not replace:
            raise SchemaError(f"aggregate {name!r} is already defined")
        agg = UserAggregate(name=key, initial=initial, transition=transition, final=final)
        self._aggregates[key] = agg
        return agg

    def get_aggregate(self, name: str) -> UserAggregate:
        try:
            return self._aggregates[name.lower()]
        except KeyError:
            raise UnknownFunctionError(f"no aggregate named {name!r}") from None


def _agg_mean_final(state: tuple[float, int]) -> Optional[float]:
    total, count = state
    return total / count if count else None


def _minmax(pick):
    """Both the transition and the merge of min/max: ``None`` is the state
    of no value, which a partition that saw none hands over."""
    return lambda a, b: b if a is None else (a if b is None else pick(a, b))


def _std_final(state: tuple[float, float, int]) -> Optional[float]:
    total, total_sq, count = state
    if count == 0:
        return None
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return var**0.5


#: The aggregates every engine installation ships with.
BUILTIN_AGGREGATES: tuple[UserAggregate, ...] = (
    UserAggregate("sum", lambda: 0, lambda s, v: s + v, merge=lambda a, b: a + b),
    UserAggregate("count", lambda: 0, lambda s, v: s + 1, merge=lambda a, b: a + b),
    UserAggregate(
        "avg",
        lambda: (0.0, 0),
        lambda s, v: (s[0] + v, s[1] + 1),
        _agg_mean_final,
        merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    ),
    UserAggregate("min", lambda: None, _minmax(min), merge=_minmax(min)),
    UserAggregate("max", lambda: None, _minmax(max), merge=_minmax(max)),
    UserAggregate(
        "stdev",
        lambda: (0.0, 0.0, 0),
        lambda s, v: (s[0] + v, s[1] + v * v, s[2] + 1),
        _std_final,
        merge=lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    ),
)

#: The process-wide registry (Section 2.3's extension point); its methods
#: are the module's functions.
functions = FunctionRegistry()
define_function = functions.define_function
define_aggregate = functions.define_aggregate
get_function = functions.get_function
get_aggregate = functions.get_aggregate


def define_function_from_file(
    name: str,
    inputs: Sequence[tuple[str, "str | ScalarType"]],
    outputs: Sequence[tuple[str, "str | ScalarType"]],
    file_handle: "str",
    replace: bool = False,
) -> UserFunction:
    """Register a UDF whose code lives in an external file — the paper's

        Define function Scale10 (...) returns (...) file_handle

    "The indicated file_handle would contain object code for the required
    function.  SciDB will link the required function into its address
    space and call it as needed."  Here the file is a Python module that
    defines ``fn`` (required) and optionally ``inverse``; it is loaded
    into the process — the dynamic-linking equivalent.
    """
    import importlib.util
    from pathlib import Path

    path = Path(file_handle)
    if not path.exists():
        raise UnknownFunctionError(f"no function file at {file_handle!r}")
    spec = importlib.util.spec_from_file_location(f"_udf_{name}", path)
    if spec is None or spec.loader is None:
        raise UnknownFunctionError(f"cannot load function file {file_handle!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    fn = getattr(module, "fn", None)
    if not callable(fn):
        raise UnknownFunctionError(
            f"{file_handle!r} must define a callable named 'fn'"
        )
    inverse = getattr(module, "inverse", None)
    return functions.define_function(
        name, inputs, outputs, fn, inverse=inverse, replace=replace
    )
