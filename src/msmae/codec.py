"""Text form of configuration values.

One formatter and one parser serve every place a configuration is
written or read: INI profiles and files, `--section.key` overrides, the
`config.ini` snapshot of a run, and the model text inside checkpoints.
A value is parsed by the type of its field's default, so the config
dataclasses are the only declaration of what a field holds:

  bool    true/false, 1/0, yes/no, on/off in any case; written true/false
  int, float, str
          as Python reads them; floats are written with repr, so they
          read back exactly
  tuple   comma-separated values of the default's element type; empty
          strings are dropped from a tuple of strings
"""

from dataclasses import field, fields

from .errors import ConfigError

_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def derived(default):
    """A field the run fills from elsewhere (another section, the command
    line) and that no configuration text sets."""
    return field(default=default, metadata={"derived": True})


def text_fields(cls):
    """The fields of dataclass `cls` that configuration text sets."""
    return [f for f in fields(cls) if not f.metadata.get("derived")]


def format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(raw, like):
    """`raw` read as a value of the same type as `like`, a field default."""
    raw = raw.strip()
    if isinstance(like, bool):
        if raw.lower() not in _BOOLS:
            raise ConfigError(f"expected a boolean, got {raw!r}")
        return _BOOLS[raw.lower()]
    if isinstance(like, tuple):
        parts = raw.split(",")
        if isinstance(like[0], str):
            return tuple(p.strip() for p in parts if p.strip())
        return tuple(parse_value(p, like[0]) for p in parts)
    try:
        return type(like)(raw)
    except ValueError:
        raise ConfigError(f"expected {type(like).__name__}, got {raw!r}") from None
