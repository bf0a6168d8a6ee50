"""Text form of configuration values.

One formatter, one INI reader and one value parser serve every place a
configuration is written or read: INI profiles and files, `--section.key`
overrides, the `config.ini` snapshot of a run, and the `[model]` section
stored inside checkpoints. A value is parsed by the type of its field's
default, so the config dataclasses are the only declaration of what a
field holds:

  bool    true or false
  int, float, str
          as Python reads them; floats are written with repr, so they
          read back exactly
  tuple   comma-separated values of the default's element type; empty
          strings are dropped from a tuple of strings
"""

import configparser
from dataclasses import field, fields

from .errors import ConfigError

_BOOLS = {"true": True, "false": False}


def derived(default):
    """A field the run fills from elsewhere (another section, the command
    line) and that no configuration text sets."""
    return field(default=default, metadata={"derived": True})


def text_keys(section, cls):
    """{(section, field): default} for the fields of dataclass `cls` that
    configuration text sets."""
    return {(section, f.name): f.default for f in fields(cls) if not f.metadata.get("derived")}


def format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def ini_section(name, items):
    """INI text of section `name` holding the (key, value) pairs `items`."""
    return f"[{name}]\n" + "".join(f"{key} = {format_value(value)}\n" for key, value in items) + "\n"


def parse_value(raw, like):
    """`raw` read as a value of the same type as `like`, a field default."""
    raw = raw.strip()
    if isinstance(like, bool):
        if raw not in _BOOLS:
            raise ConfigError(f"expected true or false, got {raw!r}")
        return _BOOLS[raw]
    if isinstance(like, tuple):
        parts = raw.split(",")
        if isinstance(like[0], str):
            return tuple(p.strip() for p in parts if p.strip())
        return tuple(parse_value(p, like[0]) for p in parts)
    try:
        return type(like)(raw)
    except ValueError:
        raise ConfigError(f"expected {type(like).__name__}, got {raw!r}") from None


def read_ini(text, origin, defaults):
    """{(section, key): value} of INI `text` (or of {section: {key: raw text}}),
    each read like its default in `defaults` ({(section, key): default}).

    A repeated section or key, a key that `defaults` lacks or a value that
    does not read raises ConfigError naming `origin` and the key.
    """
    # no header can name the section that configparser would fold into every
    # other, so [DEFAULT] is an ordinary section, and keys keep their case
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str
    try:
        if isinstance(text, str):
            parser.read_string(text, source=origin)
        else:
            parser.read_dict(text, source=origin)
    except configparser.Error as exc:  # on one line; some of its messages span several
        raise ConfigError(f"{origin}: {' '.join(str(exc).split())}") from None
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) not in defaults:
                raise ConfigError(f"{origin}: unknown option {section}.{key}")
            try:
                values[section, key] = parse_value(raw, defaults[section, key])
            except ConfigError as exc:
                raise ConfigError(f"{origin}: bad value for {section}.{key}: {exc}") from None
    return values
