import ast
import unittest
from pathlib import Path

import projsep

# heads, with each replacement field written {}, that may hold a value, and why
ALLOWED_HEADS = {
    # the dataset reader names the line first; its slug line-N is tested and
    # checked in CI, and the line's own fault follows the ": "
    "line {}": "dataset reader",
}


# a comparison or range in the head would read as its opposite once the CLI
# drops these characters from the slug: "must be >= 1" becomes must-be-1
COMPARISON_CHARACTERS = set("<>=[]")


def message_head(message: ast.Constant | ast.JoinedStr) -> str:
    """The message's text before its first ``": "``, each replacement field as ``{}``."""
    if isinstance(message, ast.Constant):
        return message.value.partition(": ")[0]
    head = []
    for part in message.values:
        if not isinstance(part, ast.Constant):
            head.append("{}")
            continue
        text, colon, _ = part.value.partition(": ")
        head.append(text)
        if colon:
            break
    return "".join(head)


def value_error_messages():
    """``(module:line, message node)`` for each ``raise ValueError(...)`` under projsep."""
    root = Path(projsep.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id == "ValueError" and exc.args):
                yield f"{path.relative_to(root)}:{node.lineno}", exc.args[0]


class TestErrorMessagesNameTheirFault(unittest.TestCase):
    """The CLI prints ``error: <slug>: <reason>``, the slug made from a message's
    text before its first ``": "``; a value there would make the slug differ
    from input to input, so a script could not match on it."""

    def test_no_value_before_the_first_colon(self):
        heads = {}
        for site, message in value_error_messages():
            with self.subTest(site):
                # a message built any other way cannot be checked here
                self.assertIsInstance(message, (ast.Constant, ast.JoinedStr))
                head = heads[site] = message_head(message)
                self.assertTrue("{}" not in head or head in ALLOWED_HEADS,
                                f"{head!r} holds a value")
                self.assertFalse(COMPARISON_CHARACTERS & set(head),
                                 f"{head!r} holds a comparison")
        # the walk reaches the messages it is meant to check
        self.assertGreater(len(heads), 30)
        self.assertIn("line {}", heads.values())
