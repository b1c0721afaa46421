"""Flat key=value run configuration.

Files hold one `section.key = value` pair per line; blank lines and lines
starting with '#' are ignored. Keys are lowercase dotted identifiers. The
RunConfig wrapper hands out typed values, records what was actually read
(the resolved echo for the manifest), and rejects unknown or duplicate keys
so typos never pass silently.
"""

from __future__ import annotations

import re

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_text",
    "load_config",
    "as_float",
    "as_int",
    "as_choice",
    "as_float_list",
]

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")


class ConfigError(Exception):
    """Invalid, missing, or unknown configuration; maps to exit code 2."""


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate config key: {key}")
        out[key] = value
    return out


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def as_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc


def as_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def as_choice(*options: str):
    def cast(raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return raw

    return cast


def as_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("expected a comma-separated list of numbers")
    return tuple(as_float(p) for p in parts)


_MISSING = object()


class RunConfig:
    """Typed view over raw key=value pairs with strict key accounting."""

    def __init__(self, raw: dict[str, str], overrides: dict | None = None):
        """overrides maps a key to the value that replaces its read one (None
        replaces nothing); a key no command reads ignores its override."""
        self._raw = dict(raw)
        self._overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        self._seen: set[str] = set()
        self.resolved: dict[str, object] = {}
        self.finished = False  # every key read, and none unknown

    def require(self, ok, key: str, text: str) -> None:
        """Raise ConfigError "<key> must <text>" unless ok."""
        if not ok:
            raise ConfigError(f"{key} must {text}")

    def get(self, key: str, cast, default=_MISSING, rule=None):
        """The key's value, cast or defaulted, then overridden, recorded and held
        to rule=(test, text)."""
        value = default
        if key in self._raw:
            self._seen.add(key)
            try:
                value = cast(self._raw[key])
            except ConfigError as exc:
                raise ConfigError(f"invalid value for {key}: {exc}") from exc
        elif default is _MISSING:
            raise ConfigError(f"missing required config key: {key}")
        value = self.resolved[key] = self._overrides.get(key, value)
        if rule is not None:
            self.require(rule[0](value), key, f"be {rule[1]}")
        return value

    def finish(self):
        """Reject any key that no reader consumed."""
        unknown = sorted(set(self._raw) - self._seen)
        if unknown:
            raise ConfigError(f"unknown config key: {unknown[0]}")
        self.finished = True
