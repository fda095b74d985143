"""Spans around gmsurf's public functions, recorded from outside the package.

``Tracer.install()`` wraps each function named in ``TRACED``.  Modules import
with ``from .x import f``, so a function has one binding per importing module;
every binding of it in every loaded ``gmsurf`` module is replaced, or calls
made inside the package would go unseen.  ``Tracer.restore()`` puts every
replaced binding back.

A span is (name, op id, parent span, four clock readings): the wrapper's
entry and exit bracket the call's own start and end.  Bookkeeping that runs
between them, such as measuring argument bit lengths, is excluded from the
span's duration and, because the parent's self time subtracts the whole
bracket, from its parent's self time too.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (module, attribute) pairs; "Class.method" patches the class attribute.
TRACED = (
    ("exact_linalg", "inertia"),
    ("exact_linalg", "determinant_rows"),
    ("exact_linalg", "nullspace_rows"),
    ("manifold", "decomposition_matrix"),
    ("manifold", "validate"),
    ("decision", "decide"),
    ("reduction", "find_singular_reduction"),
    ("reduction", "strict_shrink"),
    ("reduction", "verify_reduction"),
    ("surface", "build_surface_certificate"),
    ("surface", "verify_surface_certificate"),
    ("covers", "find_cover"),
    ("covers", "verify_cover"),
    ("covers", "CoverCertificate.last_z"),
    ("fileio", "load_manifold"),
    ("fileio", "save_json"),
    ("fileio", "surface_cert_from_json"),
    ("cli", "main"),
)

# Spans: name, op id, parent index (-1 at top level), entry, start, end, exit.
NAME, OP, PARENT, ENTRY, START, END, EXIT = range(7)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


def matrix_bits(rows) -> int:
    """Largest entry bit length (numerator or denominator) of a matrix."""
    rows = getattr(rows, "rows", rows)
    return max((_bits(x) for row in rows for x in row), default=0)


def _arg_bits(args, kwargs) -> int:
    return matrix_bits(args[0] if args else next(iter(kwargs.values())))


def _degree_bits(args, kwargs) -> int:
    cert = args[1] if len(args) > 1 else kwargs["cert"]
    return max((int(d).bit_length() for d in cert.degrees), default=0)


# Observers read a call's arguments outside the span's timed part.
ARG_OBSERVERS = {
    "exact_linalg.inertia": ("exact_linalg.arg_bits_max", _arg_bits),
    "exact_linalg.determinant_rows": ("exact_linalg.arg_bits_max", _arg_bits),
    "exact_linalg.nullspace_rows": ("exact_linalg.arg_bits_max", _arg_bits),
    "surface.verify_surface_certificate": ("surface.degree_bits_max", _degree_bits),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.maxima: dict[str, int] = {}
        self.full_support: list[bool] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, maxima = self.spans, self._stack, self.maxima
        observer = ARG_OBSERVERS.get(name)
        clock = time.perf_counter
        on_result = self.full_support.append if name == "reduction.find_singular_reduction" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = clock()
            if observer is not None:
                key, measure = observer
                value = measure(args, kwargs)
                if value > maxima.get(key, 0):
                    maxima[key] = value
            span = [name, self.op_id, stack[-1] if stack else -1, entry, 0.0, 0.0, 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = span[EXIT] = clock()
                stack.pop()
            if on_result is not None:
                on_result(all(v != 0 for v in result.a))
            span[EXIT] = clock()
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "gmsurf" or name.startswith("gmsurf."))
        }
        for module_name, attr in TRACED:
            owner = modules[f"gmsurf.{module_name}"]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans' brackets cover.

    Calls are nested and sequential in one thread, so the covered part is the
    sum of the children's entry-to-exit brackets.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[EXIT] - s[ENTRY]
    return out
