"""The command line, read against one table: command -> (summary, positional or None, options), an
option name -> (int or a tuple of choices, default or REQUIRED).  ``parse_args`` reads ``--opt value``
and ``--opt=value`` on either side of the positional, a unique prefix of an option name, a negative
number as a value and the last of a repeat; help and usage errors come from the same table.  Only
``cli.main`` imports it, so importing ``cli`` compiles less, and peaks lower in memory, than one module."""

from types import SimpleNamespace

from .engine import ROUTE_ORDER

REQUIRED = "required"
COMMANDS = {
    "compute": ("compute classes for one input document", "input",
                {"method": (("all",) + ROUTE_ORDER, "all"), "output": (("text", "json"), "text")}),
    "crosscheck": ("run every applicable route and compare", "input", {"output": (("text", "json"), "text")}),
    "identity": ("randomized exact check of the derived formulas", None,
                 {"n": (int, REQUIRED), "r": (int, REQUIRED), "trials": (int, 100), "seed": (int, 0)}),
}


class Usage(Exception):
    """(text, is_help): help for stdout, exit 0, or a usage error for stderr, exit 2."""


def _usage(command) -> str:
    if command is None:
        return "usage: milnorcalc [-h] {%s} ...\n" % ",".join(COMMANDS)
    _, positional, options = COMMANDS[command]
    words = ["usage: milnorcalc", command, "[-h]"]
    for name, (kind, default) in options.items():
        word = f"--{name} " + (name.upper() if kind is int else "{%s}" % ",".join(kind))
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words + [positional] * bool(positional)) + "\n"


def _help(command) -> Usage:
    if command is None:
        rows = "".join(f"  {name:<12}{summary}\n" for name, (summary, _, _) in COMMANDS.items())
        return Usage(f"{_usage(None)}\nExact Schwartz-MacPherson, Fulton-Johnson and Milnor classes of hypersurfaces "
                     f"and their intersections in projective space.\n\ncommands:\n{rows}", True)
    summary, _, options = COMMANDS[command]
    defaults = " ".join(f"--{name} {default}" for name, (_, default) in options.items() if default is not REQUIRED)
    return Usage(f"{_usage(command)}\n{summary}\ndefaults: {defaults}\n", True)


def _error(command, message: str) -> Usage:
    prog = f"milnorcalc {command}" if command else "milnorcalc"
    return Usage(f"{_usage(command)}{prog}: error: {message}\n", False)


def parse_args(argv: list) -> SimpleNamespace:
    """The command and its fields, read from ``argv`` against ``COMMANDS``; raises Usage."""
    command = argv[0] if argv[:1] and argv[0][:1] != "-" else None
    if command is not None and command not in COMMANDS:
        raise _error(None, f"argument command: invalid choice: {command!r} "
                           f"(choose from {', '.join(map(repr, COMMANDS))})")
    _, positional, options = COMMANDS.get(command, (None, None, {}))
    fields, given, words = {"command": command}, [], iter(argv if command is None else argv[1:])
    for word in words:
        if word[:1] != "-":
            given.append(word)
            continue
        key, eq, value = word[2:].partition("=")
        names = [name for name in (*options, "help") if name.startswith(key)] if key and word[:2] == "--" else []
        if word == "-h" or names == ["help"]:
            raise _help(command)
        if len(names) != 1:
            raise _error(command, f"unrecognized arguments: {word}")
        name, value = names[0], value if eq else next(words, None)
        kind = options[name][0]
        if value is None:
            raise _error(command, f"argument --{name}: expected one argument")
        try:
            fields[name] = int(value) if kind is int else kind[kind.index(value)]  # ValueError: not a choice
        except ValueError:
            raise _error(command, f"argument --{name}: " + (f"invalid int value: {value!r}" if kind is int else
                         f"invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")) from None
    if positional and given:
        fields[positional] = given.pop(0)
    missing = [positional] if positional and positional not in fields else []
    missing += [f"--{name}" for name, (_, default) in options.items() if default is REQUIRED and name not in fields]
    if command is None or missing:
        raise _error(command, f"the following arguments are required: {', '.join(missing or ['command'])}")
    if given:
        raise _error(command, f"unrecognized arguments: {' '.join(given)}")
    return SimpleNamespace(**{name: default for name, (_, default) in options.items()} | fields)
