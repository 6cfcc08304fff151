"""omp-sharing pass: every OpenMP ``parallel`` construct in src/ must say
exactly what it shares.

Rules:

    omp-default-none    every ``#pragma omp parallel`` / ``parallel for``
                        carries ``default(none)`` with explicit
                        shared/firstprivate/private/reduction clauses, so
                        a new variable capture is a compile break plus a
                        review item, never a silent race.
    omp-missing-clause  an identifier referenced in the region body is
                        covered by no sharing clause (the compiler catches
                        most of these under default(none); the pass also
                        reports them source-side with context).
    omp-unused-clause   a clause lists a variable the region never
                        touches — stale clauses hide real captures.
    omp-shared-write    a shared variable is written inside the region
                        without a reduction, an ``omp atomic``/``critical``
                        wrapper, or a per-iteration index proving the
                        writes target disjoint elements.

Heuristics (documented limits, tuned to this repo's style):
  * CamelCase identifiers are types, ``kCamel``/ALL_CAPS are constants,
    ``trailing_underscore_`` names are members — none can appear in
    sharing clauses, so they are skipped.
  * Writes hidden behind function calls (``f(x[i])`` mutating through a
    reference parameter) are invisible; the grouped-RNG sampler relies on
    this and documents why it is safe.
"""

import re

from . import common
from .common import Finding, KEYWORDS

RULES = {
    "omp-default-none": "omp parallel without default(none) + explicit "
                        "sharing clauses",
    "omp-missing-clause": "variable referenced in parallel region but "
                          "covered by no sharing clause",
    "omp-unused-clause": "sharing clause names a variable the region "
                         "never references",
    "omp-shared-write": "shared variable written without reduction/"
                        "atomic/critical/per-iteration-index "
                        "justification",
}

PRAGMA = re.compile(r"^\s*#\s*pragma\s+omp\b(.*)$")
CLAUSE = re.compile(
    r"\b(default|shared|firstprivate|private|lastprivate|reduction|linear|"
    r"schedule|num_threads|collapse|if|proc_bind|ordered|nowait)\b"
    r"\s*(?:\(((?:[^()]|\([^()]*\))*)\))?"
)
TOKEN = re.compile(
    r"[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*"
    r"|->|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=|==|!=|<=|>=|&&|\|\|"
    r"|<<|>>|\d[\w.+-]*|."
)
TYPE_KEYWORDS = frozenset(
    "auto float double int bool char unsigned signed long short void".split()
)
MUTATORS = frozenset(
    "push_back emplace_back pop_back insert emplace erase clear resize "
    "reserve assign swap push pop shrink_to_fit".split()
)
DECL_BOUNDARY = frozenset([";", "{", "}", "(", ",", "const", "constexpr",
                           "static", None])


def _join_pragma(sf, idx):
    """Return (full pragma text, last line index) honouring backslash
    continuations."""
    text = ""
    i = idx
    while i < len(sf.code):
        line = sf.code[i].rstrip()
        if line.endswith("\\"):
            text += line[:-1] + " "
            i += 1
        else:
            text += line
            break
    return text, i


def parse_clauses(pragma_text):
    """-> (directive words, {clause: [vars]}) for one omp pragma."""
    body = PRAGMA.match(pragma_text).group(1)
    first = CLAUSE.search(body)
    directive = body[: first.start()] if first else body
    clauses = {}
    for m in CLAUSE.finditer(body):
        name, args = m.group(1), m.group(2) or ""
        if name == "reduction" and ":" in args:
            args = args.split(":", 1)[1]
        clauses.setdefault(name, []).extend(
            a.strip() for a in args.split(",") if a.strip()
        )
    return directive.split(), clauses


def _region_lines(sf, start):
    """Lines (idx, code) of the structured block following a pragma:
    either the balanced {...} block or the single statement (a for loop's
    body counts as part of its statement)."""
    paren = 0
    brace = 0
    seen_brace = False
    lines = []
    for i in range(start, len(sf.code)):
        line = sf.code[i]
        lines.append((i, line))
        for ch in line:
            if ch == "(":
                paren += 1
            elif ch == ")":
                paren -= 1
            elif ch == "{":
                brace += 1
                seen_brace = True
            elif ch == "}":
                brace -= 1
                if seen_brace and brace == 0:
                    return lines
            elif ch == ";" and paren == 0 and not seen_brace:
                return lines
    return lines


def _tokens(code_lines):
    toks = []
    for idx, line in code_lines:
        if line.lstrip().startswith("#"):
            continue  # nested pragmas are not C++ code
        for m in TOKEN.finditer(line):
            t = m.group(0)
            if not t.isspace():
                toks.append((t, idx))
    return toks


def _declared(tokens):
    """Identifiers declared inside the region, plus the tokens that acted
    as type names in those declarations."""
    declared = set()
    types = set()
    n = len(tokens)

    def tok(i):
        return tokens[i][0] if 0 <= i < n else None

    i = 0
    while i < n:
        t = tok(i)
        prev = tok(i - 1)
        is_type = (t in TYPE_KEYWORDS) or (
            re.fullmatch(r"[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*", t or "")
            and t not in KEYWORDS
            and prev in DECL_BOUNDARY
        )
        if is_type:
            j = i + 1
            # template argument list on the type
            if tok(j) == "<":
                depth = 1
                j += 1
                while j < n and depth:
                    depth += {"<": 1, ">": -1}.get(tok(j), 0)
                    j += 1
            # auto [a, b] structured bindings
            if t == "auto" and tok(j) == "[":
                j += 1
                while j < n and tok(j) != "]":
                    if re.fullmatch(r"[A-Za-z_]\w*", tok(j)):
                        declared.add(tok(j))
                    j += 1
                i = j + 1
                continue
            while tok(j) in ("&", "*", "const"):
                j += 1
            name = tok(j)
            if (
                name
                and re.fullmatch(r"[A-Za-z_]\w*", name)
                and name not in KEYWORDS
                and tok(j + 1) in ("=", ";", ",", "(", "{", ":", ")")
            ):
                declared.add(name)
                if t not in TYPE_KEYWORDS:
                    types.add(t)
                # comma-separated declarator list: `double a = 1, b = 2;`
                k = j + 1
                depth = 0
                while k < n:
                    c = tok(k)
                    if c in ("(", "[", "{"):
                        depth += 1
                    elif c in (")", "]", "}"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif c == ";" and depth == 0:
                        break
                    elif c == "," and depth == 0 and \
                            re.fullmatch(r"[A-Za-z_]\w*", tok(k + 1) or ""):
                        declared.add(tok(k + 1))
                        k += 1
                    k += 1
                i = j + 1
                continue
        i += 1
    return declared, types


def _is_template_call(tokens, lt):
    """True when tokens[lt] is a '<' opening a template argument list
    whose closing '>' is directly followed by '(' — `f<3>(x)` is a call
    of a function template, not a comparison of a captured `f`."""
    depth = 0
    for j in range(lt, len(tokens)):
        t = tokens[j][0]
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1 < len(tokens) and tokens[j + 1][0] == "("
        elif t in (";", "{", "}", "&&", "||"):
            return False
    return False


def _usages(tokens, declared, types):
    """Identifier -> first line it is used as a plain variable."""
    used = {}
    n = len(tokens)
    for i, (t, line) in enumerate(tokens):
        if not re.fullmatch(r"[A-Za-z_]\w*", t):
            continue
        if t in KEYWORDS or t in declared or t in types:
            continue
        if t.isupper() or re.fullmatch(r"k[A-Z]\w*", t):
            continue  # macro / constexpr constant
        if re.fullmatch(r"[A-Z]\w*", t):
            continue  # CamelCase: a type in this codebase
        if t.endswith("_"):
            continue  # member of the enclosing class (implicit this)
        prev = tokens[i - 1][0] if i > 0 else None
        nxt = tokens[i + 1][0] if i + 1 < n else None
        if prev in (".", "->", "::"):
            continue  # member access — the base object is the capture
        if nxt == "(" or (nxt == "<" and _is_template_call(tokens, i + 1)):
            continue  # function call (callables in clauses still count
            # as "used" via the textual unused-clause check)
        used.setdefault(t, line)
    return used


def _critical_spans(region):
    """Line-index spans of `#pragma omp critical` blocks inside region."""
    spans = []
    for k, (idx, line) in enumerate(region):
        if re.search(r"#\s*pragma\s+omp\s.*\bcritical\b", line):
            depth = 0
            started = False
            for idx2, line2 in region[k + 1:]:
                depth += line2.count("{") - line2.count("}")
                if "{" in line2:
                    started = True
                if started and depth <= 0:
                    spans.append((idx, idx2))
                    break
                if not started and ";" in line2:
                    spans.append((idx, idx2))
                    break
    return spans


WRITE = None  # built per-variable


def _write_findings(sf, region, var, declared, loop_line):
    """Write sites of shared `var` lacking a disjointness justification.
    Returns list of (line_idx, kind)."""
    out = []
    crit = _critical_spans(region)
    direct = re.compile(
        rf"(?:\+\+|--)\s*{var}\b|\b{var}\s*(?:\+\+|--|(?:[-+*/%|&^]|<<|>>)?="
        rf"(?!=))"
    )
    indexed = re.compile(rf"\b{var}\s*(\[[^\]]*\]|\(((?:[^()]|\([^()]*\))*)\))"
                        rf"\s*(?:(?:[-+*/%|&^]|<<|>>)?=(?!=)|\.\s*(\w+)\s*\()")
    bare_mut = re.compile(rf"\b{var}\s*\.\s*(\w+)\s*\(")
    for idx, line in region:
        if line.lstrip().startswith("#"):
            continue
        justified_by_sync = (
            idx > 0
            and re.search(r"#\s*pragma\s+omp\s.*\batomic\b", sf.code[idx - 1])
        ) or any(lo <= idx <= hi for lo, hi in crit)
        m = indexed.search(line)
        if m:
            index_expr = m.group(1)
            method = m.group(3)
            if method is not None and method not in MUTATORS:
                pass  # e.g. x(i, j).size() — not a write
            else:
                idx_ids = set(common.root_identifiers(index_expr))
                if idx_ids & declared:
                    continue  # distinct per-iteration element
                if not justified_by_sync:
                    out.append((idx, "element write indexed by no "
                                     "region-local variable"))
            continue
        m = bare_mut.search(line)
        if m and m.group(1) in MUTATORS:
            if not justified_by_sync:
                out.append((idx, f"mutating call .{m.group(1)}()"))
            continue
        if direct.search(line) and not justified_by_sync:
            out.append((idx, "direct assignment"))
    del loop_line
    return out


def run(tree):
    findings = []
    for sf in tree.files():
        for i, code in enumerate(sf.code):
            m = PRAGMA.match(code)
            if not m:
                continue
            text, last = _join_pragma(sf, i)
            directive, clauses = parse_clauses(text)
            if not directive or directive[0] != "parallel":
                continue  # `omp for`/`critical`/... inherit from parallel

            def emit(rule, msg, line=i):
                if not sf.has_nolint(line, rule):
                    findings.append(Finding(sf.rel, line + 1, rule, msg))

            if clauses.get("default") != ["none"]:
                emit("omp-default-none",
                     "parallel region must carry default(none) with "
                     "explicit shared/firstprivate/reduction clauses")
                continue  # clause cross-checks assume default(none) intent

            region = _region_lines(sf, last + 1)
            toks = _tokens(region)
            declared, types = _declared(toks)
            covered = set()
            for c in ("shared", "firstprivate", "private", "lastprivate",
                      "reduction", "linear"):
                covered.update(clauses.get(c, []))

            used = _usages(toks, declared, types)
            for var, line in sorted(used.items(), key=lambda kv: kv[1]):
                if var not in covered:
                    emit("omp-missing-clause",
                         f"'{var}' is referenced in the parallel region "
                         "but appears in no sharing clause", line)
            body_text = "\n".join(line for _, line in region)
            for var in sorted(covered):
                if not re.search(rf"\b{re.escape(var)}\b", body_text):
                    emit("omp-unused-clause",
                         f"'{var}' is listed in a sharing clause but "
                         "never referenced in the region")

            writable = set(clauses.get("shared", []))
            exempt = set(clauses.get("reduction", [])) | set(
                clauses.get("firstprivate", [])) | set(
                clauses.get("private", [])) | set(
                clauses.get("lastprivate", []))
            for var in sorted(writable - exempt):
                for line, kind in _write_findings(sf, region, var, declared,
                                                 i):
                    emit("omp-shared-write",
                         f"shared '{var}' written in parallel region "
                         f"({kind}); use reduction/atomic/critical or "
                         "index by the loop variable", line)
    return findings
