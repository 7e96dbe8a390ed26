"""Tiny cursor scanner shared by the text-format parsers, and the signed
sum their writers share."""

from __future__ import annotations

from .errors import ParseError


def signed_sum(terms: list[str]) -> str:
    """Terms that carry their own sign ("-3*g2") written as one sum, "g1 -
    3*g2 + g4", or "0" when there is none; no term may contain " + -"."""
    return " + ".join(terms).replace(" + -", " - ") if terms else "0"


class Scanner:
    """Character cursor over a source string with positioned errors."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> ParseError:
        p = self.pos if pos is None else pos
        line = self.text.count("\n", 0, p) + 1
        col = p - (self.text.rfind("\n", 0, p) + 1) + 1
        return ParseError(message, line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise self.error(f"expected {literal!r}")

    def match_int(self) -> int | None:
        """Consume an unsigned decimal integer, if one starts here."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            return None
        return int(self.text[start : self.pos])

    def expect_int(self, what: str = "integer") -> int:
        value = self.match_int()
        if value is None:
            raise self.error(f"expected {what}")
        return value

    def expect_eof(self) -> None:
        if not self.eof():
            raise self.error("unexpected trailing input")
