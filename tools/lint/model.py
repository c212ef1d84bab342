"""Lexical C++ source model for loren-lint.

This is the extraction engine: a deterministic C++ lexer plus a
light structural pass (brace-block classification, statement splitting)
that is sufficient to find the constructs the project rules care about —
atomic variable declarations, atomic member-function call sites, mutex
declarations and guard instantiations, alignas() specifiers — together
with the comment annotations that exempt or contract them.

It is *not* a C++ parser. It errs on the side of flagging: an ambiguous
construct becomes a finding (which a human resolves with an annotation),
never a silent pass.
"""

from __future__ import annotations

import bisect
import dataclasses
import re
from typing import Optional

# --------------------------------------------------------------------------
# Tokens and lexing
# --------------------------------------------------------------------------

IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
PUNCT = "punct"

_PUNCT3 = ("<<=", ">>=", "...", "->*", "<=>")
_PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
           "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")


@dataclasses.dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int  # 1-based
    col: int   # 0-based


@dataclasses.dataclass(frozen=True)
class Comment:
    text: str
    first_line: int
    last_line: int
    trailing: bool  # code appears before the comment on first_line


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


def lex(text: str):
    """Tokenize C++ source. Returns (tokens, comments, code_lines) where
    code_lines is the set of line numbers that carry at least one token."""
    tokens: list[Token] = []
    comments: list[Comment] = []
    code_lines: set[int] = set()
    i, n = 0, len(text)
    line, line_start = 1, 0

    def col(pos):
        return pos - line_start

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments -----------------------------------------------------
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                start, first = i, line
                while i < n and text[i] != "\n":
                    i += 1
                comments.append(Comment(text[start:i], first, first,
                                        trailing=first in code_lines))
                continue
            if text[i + 1] == "*":
                start, first = i, line
                i += 2
                while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                    if text[i] == "\n":
                        line += 1
                        line_start = i + 1
                    i += 1
                i = min(i + 2, n)
                comments.append(Comment(text[start:i], first, line,
                                        trailing=first in code_lines))
                continue
        # Preprocessor directive: consume the logical line ------------
        if c == "#" and line not in code_lines:
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    i += 2
                    line += 1
                    line_start = i
                    continue
                if text[i] == "\n":
                    break
                # A // comment ends the directive's interesting part but
                # we still must swallow to end of line.
                i += 1
            continue
        # Raw strings --------------------------------------------------
        if c == 'R' and i + 1 < n and text[i + 1] == '"':
            j = text.find("(", i + 2)
            if j != -1:
                delim = text[i + 2:j]
                end = text.find(")" + delim + '"', j)
                end = n if end == -1 else end + len(delim) + 2
                code_lines.add(line)
                tokens.append(Token(STRING, text[i:end], line, col(i)))
                line += text.count("\n", i, end)
                nl = text.rfind("\n", i, end)
                if nl != -1:
                    line_start = nl + 1
                i = end
                continue
        # Strings / chars ---------------------------------------------
        if c == '"' or c == "'":
            quote, start = c, i
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail at newline
                    break
                i += 1
            i = min(i + 1, n)
            code_lines.add(line)
            tokens.append(Token(STRING if quote == '"' else CHAR,
                                text[start:i], line, col(start)))
            continue
        # Identifiers --------------------------------------------------
        if c in _IDENT_START:
            start = i
            while i < n and text[i] in _IDENT_CONT:
                i += 1
            code_lines.add(line)
            tokens.append(Token(IDENT, text[start:i], line, col(start)))
            continue
        # Numbers (incl. hex, digit separators, suffixes) -------------
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            start = i
            while i < n and (text[i] in _IDENT_CONT or text[i] in ".'" or
                             (text[i] in "+-" and text[i - 1] in "eEpP")):
                i += 1
            code_lines.add(line)
            tokens.append(Token(NUMBER, text[start:i], line, col(start)))
            continue
        # Punctuation --------------------------------------------------
        for group in (_PUNCT3, _PUNCT2):
            tri = text[i:i + len(group[0])]
            if tri in group:
                code_lines.add(line)
                tokens.append(Token(PUNCT, tri, line, col(i)))
                i += len(tri)
                break
        else:
            code_lines.add(line)
            tokens.append(Token(PUNCT, c, line, col(i)))
            i += 1
    return tokens, comments, code_lines


# --------------------------------------------------------------------------
# Block structure
# --------------------------------------------------------------------------

# Block kinds
FILE = "file"
NAMESPACE = "namespace"
CLASS = "class"
FUNCTION = "function"
CONTROL = "control"
ENUM = "enum"
INIT = "init"  # braced initializer / expression braces

_CONTROL_KW = {"if", "for", "while", "switch", "catch"}
_CLASS_KW = {"class", "struct", "union"}


@dataclasses.dataclass
class Block:
    kind: str
    parent: Optional["Block"]
    open_idx: int   # token index of '{' (-1 for file scope)
    close_idx: int  # token index of '}' (len(tokens) for file scope)
    children: list = dataclasses.field(default_factory=list)


def _match_back_paren(tokens, close_idx):
    depth = 0
    for j in range(close_idx, -1, -1):
        t = tokens[j].text
        if t == ")":
            depth += 1
        elif t == "(":
            depth -= 1
            if depth == 0:
                return j
    return -1


def build_blocks(tokens):
    """Returns (file_block, block_of) where block_of[i] is the innermost
    Block containing token i."""
    file_block = Block(FILE, None, -1, len(tokens))
    block_of = [file_block] * len(tokens)
    stack = [file_block]
    # statement start per open block: index after last ';' '{' '}' ':' label
    stmt_start = [0]

    for i, tok in enumerate(tokens):
        block_of[i] = stack[-1]
        t = tok.text
        if tok.kind == PUNCT and t == "{":
            kind = _classify_open(tokens, i, stmt_start[-1], stack[-1])
            blk = Block(kind, stack[-1], i, len(tokens))
            stack[-1].children.append(blk)
            block_of[i] = blk
            stack.append(blk)
            stmt_start.append(i + 1)
        elif tok.kind == PUNCT and t == "}":
            if len(stack) > 1:
                stack[-1].close_idx = i
                block_of[i] = stack[-1]
                stack.pop()
                stmt_start.pop()
            stmt_start[-1] = i + 1
        elif tok.kind == PUNCT and t == ";":
            stmt_start[-1] = i + 1
    return file_block, block_of


def _classify_open(tokens, i, stmt_start, parent):
    """Classify the '{' at token index i."""
    # Scan back for the previous significant token.
    j = i - 1
    if j < 0:
        return INIT
    prev = tokens[j]
    # Braced init / expression contexts.
    if prev.kind == PUNCT and prev.text in ("=", ",", "(", "[", "{", "return"):
        return INIT
    if prev.kind == IDENT and prev.text == "return":
        return INIT
    # Statement keywords owning blocks.
    if prev.kind == IDENT and prev.text in ("else", "do", "try"):
        return CONTROL
    # ')' ... '{' or trailing specifiers: function or control.
    k = j
    while k >= 0 and tokens[k].kind == IDENT and tokens[k].text in (
            "const", "noexcept", "override", "final", "mutable"):
        k -= 1
    if k >= 0 and tokens[k].text == ")":
        op = _match_back_paren(tokens, k)
        if op > 0:
            before = tokens[op - 1]
            if before.kind == IDENT and before.text in _CONTROL_KW:
                return CONTROL
            if before.text == "]":  # lambda introducer
                return FUNCTION
        return FUNCTION if parent.kind in (FILE, NAMESPACE, CLASS) else _fn_or_control(tokens, op, stmt_start)
    # '-> type {' trailing return; 'noexcept {': handled above mostly.
    # Scan the statement head for namespace/class/enum keywords.
    head = range(max(stmt_start, 0), i)
    depth = 0
    for k in head:
        t = tokens[k]
        if t.kind == PUNCT:
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                depth -= 1
            continue
        if depth != 0 or t.kind != IDENT:
            continue
        if t.text == "namespace":
            return NAMESPACE
        if t.text == "enum":
            return ENUM
        if t.text in _CLASS_KW:
            return CLASS
    # identifier '{' at class scope is a member braced-init; elsewhere an
    # initializer / aggregate.
    return INIT


def _fn_or_control(tokens, op, stmt_start):
    # A ')' '{' inside a function: lambda or control statement already
    # handled; nested function definitions don't exist — treat as control.
    if op > 0 and tokens[op - 1].kind == IDENT and tokens[op - 1].text in _CONTROL_KW:
        return CONTROL
    return FUNCTION


# --------------------------------------------------------------------------
# Annotations
# --------------------------------------------------------------------------

_VALID_ORDERS = {"relaxed", "acquire", "release", "acq_rel", "seq_cst"}

_MO_RE = re.compile(r"\bmo:\s*([a-z_]+(?:\s*[,/]\s*[a-z_]+)*)\s*(?:—|--|-)\s*(\S.*)")
_MO_RELAXED_OK_RE = re.compile(r"\bmo:relaxed-ok\(([^)]*)\)")
_SIM_EXEMPT_RE = re.compile(r"\bsim:exempt\(([^)]*)\)")
_SIM_LOCK_OK_RE = re.compile(r"\bsim:lock-ok\(([^)]*)\)")
_CL_RAW_OK_RE = re.compile(r"\bcl:raw-ok\(([^)]*)\)")
_EXPECT_RE = re.compile(r"\blint-expect:\s*([A-Z]{2}\d{2})\b")


@dataclasses.dataclass
class Annotations:
    mo_orders: Optional[set] = None    # parsed order set, None = absent
    mo_why: str = ""
    mo_malformed: bool = False
    relaxed_ok: Optional[str] = None   # reason, None = absent
    sim_exempt: Optional[str] = None
    sim_lock_ok: Optional[str] = None
    cl_raw_ok: Optional[str] = None
    expects: list = dataclasses.field(default_factory=list)


def parse_annotations(text: str) -> Annotations:
    ann = Annotations()
    m = _MO_RELAXED_OK_RE.search(text)
    if m:
        ann.relaxed_ok = m.group(1).strip()
    # mo: contract — avoid matching the mo:relaxed-ok form itself.
    stripped = _MO_RELAXED_OK_RE.sub("", text)
    m = _MO_RE.search(stripped)
    if m:
        orders = {o.strip() for o in re.split(r"[,/]", m.group(1)) if o.strip()}
        if orders and orders <= _VALID_ORDERS:
            ann.mo_orders = orders
            ann.mo_why = m.group(2).strip()
        else:
            ann.mo_malformed = True
    elif re.search(r"\bmo:", stripped):
        ann.mo_malformed = True
    m = _SIM_EXEMPT_RE.search(text)
    if m:
        ann.sim_exempt = m.group(1).strip()
    m = _SIM_LOCK_OK_RE.search(text)
    if m:
        ann.sim_lock_ok = m.group(1).strip()
    m = _CL_RAW_OK_RE.search(text)
    if m:
        ann.cl_raw_ok = m.group(1).strip()
    ann.expects = _EXPECT_RE.findall(text)
    return ann


def merge_annotations(target: Annotations, extra: Annotations):
    if target.mo_orders is None and not target.mo_malformed:
        target.mo_orders = extra.mo_orders
        target.mo_why = extra.mo_why
        target.mo_malformed = extra.mo_malformed
    for field in ("relaxed_ok", "sim_exempt", "sim_lock_ok", "cl_raw_ok"):
        if getattr(target, field) is None:
            setattr(target, field, getattr(extra, field))
    target.expects.extend(extra.expects)
    return target


# --------------------------------------------------------------------------
# Extraction data classes (what the rules consume)
# --------------------------------------------------------------------------

@dataclasses.dataclass
class AtomicDecl:
    name: str
    line: int
    annotations: Annotations
    file: str = ""


@dataclasses.dataclass
class AtomicOp:
    """A member-function call on (what is believed to be) an atomic."""
    receiver: Optional[str]  # innermost member/variable name, None if unresolvable
    method: str
    orders: list             # memory_order_* argument names, in order
    line: int
    annotations: Annotations
    has_sim_point_in_scope: bool = False
    file: str = ""


@dataclasses.dataclass
class MutexDecl:
    name: str
    line: int
    sim_mutex: bool
    annotations: Annotations
    file: str = ""


@dataclasses.dataclass
class LockSite:
    """A guard instantiation or other textual std::mutex use."""
    mutex_name: Optional[str]  # resolved lock argument, if any
    explicit_std_mutex: bool   # statement names std::mutex textually
    line: int
    annotations: Annotations
    is_decl: bool = False      # the statement *declares* a mutex
    file: str = ""


@dataclasses.dataclass
class AlignasSite:
    literal: str
    line: int
    annotations: Annotations
    file: str = ""


@dataclasses.dataclass
class Extraction:
    path: str
    atomic_decls: list = dataclasses.field(default_factory=list)
    atomic_ops: list = dataclasses.field(default_factory=list)
    mutex_decls: list = dataclasses.field(default_factory=list)
    lock_sites: list = dataclasses.field(default_factory=list)
    alignas_sites: list = dataclasses.field(default_factory=list)
    expects: list = dataclasses.field(default_factory=list)  # (line, rule_id)


# --------------------------------------------------------------------------
# The extractor
# --------------------------------------------------------------------------

_RMW_METHODS = {
    "exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
    "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
    "test_and_set",
}
_ATOMIC_METHODS = _RMW_METHODS | {"load", "store", "clear", "wait",
                                  "notify_one", "notify_all"}
_GUARD_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
_MUTEX_TYPES = {"mutex", "recursive_mutex", "timed_mutex",
                "recursive_timed_mutex", "shared_mutex"}
_DECL_SKIP_LEAD = {"using", "typedef", "friend", "template", "return"}


class SourceModel:
    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.tokens, self.comments, self.code_lines = lex(text)
        self.file_block, self.block_of = build_blocks(self.tokens)
        self._comment_by_line: dict[int, list[Comment]] = {}
        for c in self.comments:
            self._comment_by_line.setdefault(c.first_line, []).append(c)
        self._comment_lines = set()
        for c in self.comments:
            for ln in range(c.first_line, c.last_line + 1):
                self._comment_lines.add(ln)
        self._line_of_idx = [t.line for t in self.tokens]

    # -- annotations -----------------------------------------------------
    def annotations_for_lines(self, first: int, last: int) -> Annotations:
        """Annotations attached to a statement spanning [first, last]:
        comments on any of those lines, plus the contiguous run of
        comment-only lines immediately above `first`."""
        texts = []
        for ln in range(first, last + 1):
            for c in self._comment_by_line.get(ln, ()):  # same-line comments
                texts.append(c.text)
        above = []
        ln = first - 1
        while ln > 0 and ln in self._comment_lines and ln not in self.code_lines:
            for c in self._comment_by_line.get(ln, ()):
                above.append(c.text)
            # A block comment may start well above ln; hop to its first line.
            covering = [c for c in self.comments
                        if c.first_line <= ln <= c.last_line]
            ln = min([c.first_line for c in covering], default=ln) - 1
        # The comment block is parsed as one text so an annotation's
        # (<reason>) may wrap across '//' lines; above-run lines were
        # gathered bottom-up, so restore top-down order.
        texts.extend(reversed(above))
        return parse_annotations("\n".join(texts))

    # -- statements ------------------------------------------------------
    def _statement_range(self, idx: int):
        """(start, end) token indices of the statement containing token idx,
        staying at the brace level of that token's block. end points at the
        terminating ';' (or block close)."""
        blk = self.block_of[idx]
        lo = blk.open_idx + 1
        hi = blk.close_idx
        start = lo
        depth = 0
        j = idx
        # walk back
        while j > lo:
            t = self.tokens[j - 1]
            if t.kind == PUNCT:
                if t.text == "}":
                    # A closed block at this level: either an earlier
                    # sibling construct's end (statement boundary) or a
                    # braced init earlier in this statement — only the
                    # init case nests, and then we are inside its braces
                    # already (depth > 0 from its closing on the way).
                    if depth == 0:
                        break
                    depth += 1
                elif t.text in (")", "]"):
                    depth += 1
                elif t.text in ("(", "[", "{"):
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and t.text == ";":
                    break
            j -= 1
        start = j
        # walk forward
        j = idx
        depth = 0
        while j < hi:
            t = self.tokens[j]
            if t.kind == PUNCT:
                if t.text in ("(", "[", "{"):
                    depth += 1
                elif t.text in (")", "]", "}"):
                    depth -= 1
                elif t.text == ";" and depth <= 0:
                    break
            j += 1
        return start, min(j, hi - 1) if hi > lo else (start)

    def statement_annotations(self, idx: int) -> Annotations:
        s, e = self._statement_range(idx)
        first = self.tokens[s].line
        last = self.tokens[min(e, len(self.tokens) - 1)].line
        return self.annotations_for_lines(first, last)

    # -- main extraction -------------------------------------------------
    def extract(self) -> Extraction:
        ex = Extraction(self.path)
        toks = self.tokens
        n = len(toks)
        for c in self.comments:
            for rule in _EXPECT_RE.findall(c.text):
                ex.expects.append((c.first_line, rule))

        i = 0
        while i < n:
            t = toks[i]
            if t.kind != IDENT:
                i += 1
                continue
            # std::atomic... -------------------------------------------
            if (t.text == "std" and i + 2 < n and toks[i + 1].text == "::"
                    and toks[i + 2].text in ("atomic", "atomic_flag",
                                             "atomic_bool", "atomic_int",
                                             "atomic_uint")):
                self._maybe_atomic_decl(ex, i)
                i += 3
                continue
            # atomic method calls: recv.load(...) ----------------------
            if (t.text in _ATOMIC_METHODS and i + 1 < n
                    and toks[i + 1].text == "("
                    and i > 0 and toks[i - 1].text in (".", "->")):
                self._atomic_op(ex, i)
                i += 1
                continue
            # mutex / guard sites --------------------------------------
            if (t.text in _MUTEX_TYPES and i >= 2 and toks[i - 1].text == "::"
                    and toks[i - 2].text == "std"):
                self._mutex_mention(ex, i)
                i += 1
                continue
            if t.text == "SimMutex":
                self._sim_mutex_decl(ex, i)
                i += 1
                continue
            if (t.text in _GUARD_TYPES and i >= 2 and toks[i - 1].text == "::"
                    and toks[i - 2].text == "std"):
                self._guard_site(ex, i)
                i += 1
                continue
            # alignas(<integer>) ---------------------------------------
            if (t.text == "alignas" and i + 2 < n and toks[i + 1].text == "("
                    and toks[i + 2].kind == NUMBER):
                ann = self.statement_annotations(i)
                ex.alignas_sites.append(AlignasSite(
                    toks[i + 2].text, t.line, ann, self.path))
                i += 3
                continue
            i += 1
        return ex

    # -- helpers ---------------------------------------------------------
    def _decl_context_ok(self, idx: int):
        """True when token idx sits where a variable declaration can be:
        class/namespace/file scope, or a `static` declaration statement in
        function scope. Also rejects positions inside parentheses."""
        blk = self.block_of[idx]
        s, _ = self._statement_range(idx)
        # inside parens (parameter list / argument list / cast)? The
        # statement walk stops at an unmatched '(' — so either a '(' is
        # still open between s and idx, or s itself sits right after one.
        depth = 0
        for j in range(s, idx):
            t = self.tokens[j].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
        if depth > 0:
            return False, s
        if s > blk.open_idx + 1 and s > 0 and self.tokens[s - 1].text == "(":
            return False, s
        lead = self.tokens[s]
        if lead.kind == IDENT and lead.text in _DECL_SKIP_LEAD:
            return False, s
        if blk.kind in (CLASS, NAMESPACE, FILE):
            return True, s
        if blk.kind in (FUNCTION, CONTROL):
            # only `static`/`thread_local` declarations count
            for j in range(s, idx):
                tt = self.tokens[j]
                if tt.kind == IDENT and tt.text in ("static", "thread_local"):
                    return True, s
        return False, s

    def _declared_name(self, idx: int):
        """The declared variable name for a declaration statement whose
        type mention starts around token idx: the last identifier at
        paren/angle depth 0 before `;`, `=`, `{`, `[`, or `(`. Returns
        (name, is_function_like)."""
        s, e = self._statement_range(idx)
        angle = 0
        paren = 0
        last_ident = None
        j = idx
        while j <= e:
            t = self.tokens[j]
            if t.kind == PUNCT:
                if t.text == "<":
                    angle += 1
                elif t.text == ">":
                    angle = max(0, angle - 1)
                elif t.text == ">>":
                    angle = max(0, angle - 2)
                elif t.text == "(":
                    if angle == 0 and paren == 0:
                        return last_ident, last_ident is not None
                    paren += 1
                elif t.text == ")":
                    paren = max(0, paren - 1)
                elif angle == 0 and paren == 0 and t.text in (";", "=", "{", "["):
                    return last_ident, False
                elif angle == 0 and paren == 0 and t.text == ",":
                    # multi-declarator: report the first
                    return last_ident, False
            elif t.kind == IDENT and angle == 0 and paren == 0:
                if t.text not in ("const", "constexpr", "inline", "mutable",
                                  "static", "volatile", "thread_local"):
                    last_ident = t.text
            j += 1
        return last_ident, False

    def _maybe_atomic_decl(self, ex: Extraction, idx: int):
        ok, _ = self._decl_context_ok(idx)
        if not ok:
            return
        name, fn_like = self._declared_name(idx)
        if name is None or fn_like:
            return
        if name in ("atomic", "atomic_flag"):
            return
        ann = self.statement_annotations(idx)
        ex.atomic_decls.append(AtomicDecl(name, self.tokens[idx].line, ann,
                                          self.path))

    def _atomic_op(self, ex: Extraction, idx: int):
        toks = self.tokens
        # receiver: identifier chain component right before '.'/'->'
        recv = None
        j = idx - 1  # '.' or '->'
        if j - 1 >= 0:
            prev = toks[j - 1]
            if prev.kind == IDENT:
                recv = prev.text
            elif prev.text == "]":  # arr[i].op — take the array name
                depth = 0
                k = j - 1
                while k >= 0:
                    if toks[k].text == "]":
                        depth += 1
                    elif toks[k].text == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if k > 0 and toks[k - 1].kind == IDENT:
                    recv = toks[k - 1].text
        # memory_order arguments within the call parens
        orders = []
        depth = 0
        k = idx + 1
        while k < len(toks):
            t = toks[k]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif t.kind == IDENT and t.text.startswith("memory_order"):
                if t.text == "memory_order":
                    # std::memory_order::relaxed spelling
                    if k + 2 < len(toks) and toks[k + 1].text == "::":
                        orders.append("memory_order_" + toks[k + 2].text)
                else:
                    orders.append(t.text)
            k += 1
        ann = self.statement_annotations(idx)
        op = AtomicOp(recv, toks[idx].text, orders, toks[idx].line, ann,
                      file=self.path)
        op.has_sim_point_in_scope = self._sim_point_in_scope(idx)
        ex.atomic_ops.append(op)

    def _sim_point_in_scope(self, idx: int):
        """True when a LOREN_SIM_POINT appears anywhere inside the
        innermost enclosing function/control block (nested blocks
        included) of token idx."""
        blk = self.block_of[idx]
        while blk is not None and blk.kind not in (FUNCTION, CONTROL):
            blk = blk.parent
        if blk is None:
            return False
        lo = blk.open_idx + 1 if blk.open_idx >= 0 else 0
        hi = blk.close_idx
        for j in range(lo, hi):
            if self.tokens[j].kind == IDENT and \
                    self.tokens[j].text == "LOREN_SIM_POINT":
                return True
        return False

    def _mutex_mention(self, ex: Extraction, idx: int):
        """A textual std::mutex (or cousin) mention: a declaration, a
        guard template argument, or a parameter."""
        toks = self.tokens
        s, _e = self._statement_range(idx)
        ann = self.statement_annotations(idx)
        # Guard template argument? std::lock_guard<std::mutex> ...
        stmt_has_guard = False
        for j in range(s, idx):
            if toks[j].kind == IDENT and toks[j].text in _GUARD_TYPES:
                stmt_has_guard = True
                break
        if stmt_has_guard:
            return  # the guard-site pass reports it with its argument
        ok, _ = self._decl_context_ok(idx)
        is_decl = False
        name = None
        if ok or self.block_of[idx].kind in (FUNCTION, CONTROL):
            name, fn_like = self._declared_name(idx)
            is_decl = name is not None and not fn_like
        if is_decl:
            ex.mutex_decls.append(MutexDecl(name, toks[idx].line, False, ann,
                                            self.path))
        else:
            ex.lock_sites.append(LockSite(None, True, toks[idx].line, ann,
                                          is_decl=False, file=self.path))

    def _sim_mutex_decl(self, ex: Extraction, idx: int):
        ok, _ = self._decl_context_ok(idx)
        if not ok:
            return
        name, fn_like = self._declared_name(idx)
        if name is None or fn_like or name == "SimMutex":
            return
        ann = self.statement_annotations(idx)
        ex.mutex_decls.append(MutexDecl(name, self.tokens[idx].line, True,
                                        ann, self.path))

    def _guard_site(self, ex: Extraction, idx: int):
        toks = self.tokens
        n = len(toks)
        explicit_std_mutex = False
        # template argument scan
        j = idx + 1
        angle = 0
        while j < n:
            t = toks[j]
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                angle -= 1
                if angle <= 0:
                    j += 1
                    break
            elif t.text == ">>":
                angle -= 2
                if angle <= 0:
                    j += 1
                    break
            elif angle == 0:
                break
            elif t.kind == IDENT and t.text in _MUTEX_TYPES and \
                    toks[j - 1].text == "::" and toks[j - 2].text == "std":
                explicit_std_mutex = True
            j += 1
        # variable name then '(' arg ')': first identifier inside parens,
        # following member access to its last component so that
        # `lock(shard.mu)` / `lock(sp->mu)` resolve to the declaration of
        # `mu` rather than to the enclosing object.
        mutex_name = None
        while j < n and toks[j].text not in ("(", ";", "{"):
            j += 1
        if j < n and toks[j].text == "(":
            depth = 0
            while j < n:
                t = toks[j]
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif t.kind == IDENT and not t.text.startswith("std") and \
                        (mutex_name is None
                         or toks[j - 1].text in (".", "->")):
                    mutex_name = t.text
                j += 1
        ann = self.statement_annotations(idx)
        ex.lock_sites.append(LockSite(mutex_name, explicit_std_mutex,
                                      toks[idx].line, ann, file=self.path))


def extract_file(path: str) -> Extraction:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    return SourceModel(path, text).extract()
