"""Compiling and caching generated protocol agents.

The registry ties the pipeline together:

``.mac`` text → :func:`repro.dsl.parser.parse_mac` → validation →
:func:`repro.codegen.generator.generate_source` → :func:`compile_source` →
an importable :class:`~repro.runtime.agent.Agent` subclass.

It also resolves protocol *stacks*: following the ``uses`` header of each
specification (with optional overrides, which is how "switch Scribe from
Pastry to Chord by changing a single line" is exercised programmatically)
down to the lowest layer, returning the agent classes lowest-first, ready to
hand to :class:`~repro.runtime.node.MacedonNode`.
"""

from __future__ import annotations

import difflib
import sys
import types
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Optional, Sequence, Type

from ..dsl.ast import ProtocolSpec
from ..dsl.errors import CodegenError, MacError
from ..dsl.parser import parse_mac
from ..dsl.validator import validate
from ..runtime.agent import Agent
from .generator import class_name_for, generate_source, module_name_for


def default_specs_dir() -> Path:
    """Directory holding the bundled ``.mac`` specifications."""
    return Path(__file__).resolve().parent.parent / "protocols" / "specs"


def compile_source(source: str, module_name: str) -> Type[Agent]:
    """Execute generated *source* as a module and return its agent class."""
    module = types.ModuleType(module_name)
    module.__dict__["__file__"] = f"<macedon-generated:{module_name}>"
    try:
        code = compile(source, module.__dict__["__file__"], "exec")
        exec(code, module.__dict__)  # noqa: S102 - executing our own generated code
    except SyntaxError as exc:
        raise CodegenError(f"generated code does not compile: {exc}") from exc
    agent_class = module.__dict__.get("AGENT_CLASS")
    if agent_class is None or not issubclass(agent_class, Agent):
        raise CodegenError(f"generated module {module_name!r} did not define AGENT_CLASS")
    # Register so tracebacks and pickling can find the module.
    sys.modules[module_name] = module
    return agent_class


def compile_spec(spec: ProtocolSpec, *, validate_spec: bool = True,
                 module_name: Optional[str] = None) -> Type[Agent]:
    """Validate, generate, and compile a parsed specification.

    ``module_name`` overrides the ``sys.modules`` registration name; the
    registry uses this to keep re-based variants from clobbering the bundled
    variant's module entry.
    """
    if validate_spec:
        validate(spec)
    source = generate_source(spec)
    return compile_source(source, module_name or module_name_for(spec.name))


def compile_mac(text: str, filename: Optional[str] = None) -> Type[Agent]:
    """One-shot: mac source text → agent class."""
    spec = parse_mac(text, filename)
    return compile_spec(spec)


class ProtocolRegistry:
    """Loads, generates, and caches the bundled protocol suite."""

    def __init__(self, specs_dir: Optional[Path] = None) -> None:
        self.specs_dir = Path(specs_dir) if specs_dir is not None else default_specs_dir()
        self._spec_cache: dict[str, ProtocolSpec] = {}
        self._class_cache: dict[tuple[str, Optional[str]], Type[Agent]] = {}

    # ------------------------------------------------------------------- specs
    def available(self) -> list[str]:
        """Names of all bundled specifications."""
        return sorted(path.stem for path in self.specs_dir.glob("*.mac"))

    def spec_path(self, name: str) -> Path:
        path = self.specs_dir / f"{name}.mac"
        if not path.exists():
            raise MacError(self._missing_spec_message(name))
        return path

    def _missing_spec_message(self, name: str) -> str:
        """A diagnosis for a missing spec: where we looked, the closest match,
        and how to register a new one."""
        lines = [f"no specification named {name!r}",
                 f"specs directory: {self.specs_dir}"]
        if not self.specs_dir.is_dir():
            lines.append("the specs directory does not exist")
        else:
            available = self.available()
            if available:
                close = difflib.get_close_matches(name, available, n=3)
                if close:
                    lines.append(f"did you mean: {', '.join(close)}?")
                lines.append(f"available specs: {', '.join(available)}")
            else:
                lines.append("the specs directory contains no .mac files")
        lines.append(
            f"to register a new protocol, save its specification as "
            f"{self.specs_dir / (name + '.mac')} (or construct "
            f"ProtocolRegistry(specs_dir=...) pointing at your own directory)"
        )
        return "; ".join(lines)

    def load_spec(self, name: str) -> ProtocolSpec:
        """Parse and validate the named bundled specification (cached)."""
        cached = self._spec_cache.get(name)
        if cached is None:
            path = self.spec_path(name)
            cached = parse_mac(path.read_text(encoding="utf-8"), filename=str(path))
            validate(cached)
            self._spec_cache[name] = cached
        return cached

    # ----------------------------------------------------------------- classes
    def load_protocol(self, name: str, *, base: Optional[str] = None) -> Type[Agent]:
        """Agent class for the named protocol, optionally re-layered over *base*.

        Passing ``base`` overrides the specification's ``uses`` header — the
        paper's single-line change that moves Scribe from Pastry to Chord.
        """
        cache_key = (name, base)
        cached = self._class_cache.get(cache_key)
        if cached is not None:
            return cached
        spec = self.load_spec(name)
        if base is not None and base != spec.base:
            spec = _respecify_base(spec, base)
        # Re-based variants compile under their own module name so they never
        # poison the unoverridden variant's sys.modules registration (or its
        # cached class, which keeps pointing at its own module).
        agent_class = compile_spec(spec, validate_spec=False,
                                   module_name=module_name_for(name, base))
        if base is not None:
            # Distinguish re-based variants so both can coexist in one process.
            agent_class = type(f"{class_name_for(name)}Over{base.capitalize()}",
                               (agent_class,), {"BASE_PROTOCOL": base})
        self._class_cache[cache_key] = agent_class
        return agent_class

    def load_stack(self, name: str,
                   base_overrides: Optional[dict[str, str]] = None) -> list[Type[Agent]]:
        """Resolve the full layering chain of *name*, lowest layer first.

        ``base_overrides`` maps protocol name → replacement base protocol,
        applied while following the ``uses`` chain (e.g. ``{"scribe":
        "chord"}`` builds SplitStream/Scribe/Chord instead of
        SplitStream/Scribe/Pastry).
        """
        base_overrides = base_overrides or {}
        chain: list[Type[Agent]] = []
        seen: set[str] = set()
        current: Optional[str] = name
        while current is not None:
            if current in seen:
                raise MacError(f"layering cycle detected at protocol {current!r}")
            seen.add(current)
            override = base_overrides.get(current)
            spec = self.load_spec(current)
            effective_base = override if override is not None else spec.base
            agent_class = self.load_protocol(current, base=override)
            chain.append(agent_class)
            current = effective_base
        chain.reverse()
        return chain

    def recipe_of(self, agent_classes) -> Optional[tuple]:
        """The ``(name, base)`` :meth:`load_protocol` keys that rebuild
        *agent_classes*, or None if any class was not compiled here (a
        hand-written agent, say).  This is how another process — a live
        node — rebuilds exactly the stack a scenario resolved."""
        keys = {cls: key for key, cls in self._class_cache.items()}
        recipe = tuple(keys.get(cls) for cls in agent_classes)
        return recipe if recipe and None not in recipe else None

    # ------------------------------------------------------------------ output
    def generated_source(self, name: str, *, base: Optional[str] = None) -> str:
        """The generated Python source for the named protocol."""
        spec = self.load_spec(name)
        if base is not None and base != spec.base:
            spec = _respecify_base(spec, base)
        return generate_source(spec)

    def write_generated(self, name: str, directory: Path,
                        *, base: Optional[str] = None) -> Path:
        """Write the generated module to *directory* and return its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}_generated.py"
        path.write_text(self.generated_source(name, base=base), encoding="utf-8")
        return path

    def lines_of_code(self) -> dict[str, int]:
        """LOC of every bundled specification (the Figure-7 quantity)."""
        return {name: self.load_spec(name).lines_of_code() for name in self.available()}


def _respecify_base(spec: ProtocolSpec, base: str) -> ProtocolSpec:
    """A copy of *spec* with its ``uses`` header replaced."""
    clone = ProtocolSpec(
        name=spec.name, base=base, addressing=spec.addressing, trace=spec.trace,
        constants=list(spec.constants), states=list(spec.states),
        neighbor_types=list(spec.neighbor_types), transports=list(spec.transports),
        messages=list(spec.messages), state_vars=list(spec.state_vars),
        transitions=list(spec.transitions), routines=list(spec.routines),
        source_file=spec.source_file, source_text=spec.source_text,
    )
    return clone


#: Process-wide registry over the bundled specifications.
_default_registry: Optional[ProtocolRegistry] = None


def get_registry() -> ProtocolRegistry:
    """The shared registry over the bundled specification directory."""
    global _default_registry
    if _default_registry is None:
        _default_registry = ProtocolRegistry()
    return _default_registry


def load_protocol(name: str, *, base: Optional[str] = None) -> Type[Agent]:
    """Shortcut for :meth:`ProtocolRegistry.load_protocol` on the shared registry."""
    return get_registry().load_protocol(name, base=base)


def load_stack(name: str,
               base_overrides: Optional[dict[str, str]] = None) -> list[Type[Agent]]:
    """Shortcut for :meth:`ProtocolRegistry.load_stack` on the shared registry."""
    return get_registry().load_stack(name, base_overrides)
