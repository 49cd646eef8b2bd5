"""Exception types shared across the package, and the text-file reader that
turns undecodable input into one of them."""

import io


class ValidationError(ValueError):
    """Input data violates a documented invariant or format rule."""


class InfeasibleError(ValidationError):
    """No market equilibrium exists for the given bounds."""


def read_lines(path):
    """All lines of a UTF-8 text file, newlines translated as text mode
    does; any other bytes are a ValidationError naming the first one's
    offset in the file."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return io.StringIO(text, newline=None).readlines()
