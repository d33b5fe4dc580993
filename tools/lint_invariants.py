#!/usr/bin/env python3
"""Repo invariant linter (run by ctest as `lint_invariants` and by CI).

Checks cross-cutting rules that the compiler cannot express:

R1a  raw-sync-primitive: no `std::mutex` / `std::shared_mutex` /
     `std::condition_variable` / `std::lock_guard` / `std::unique_lock`
     / `std::scoped_lock` members or locals in src/ or tools/ outside
     src/common/mutex.h. All locking goes through the annotated
     wrappers (tsexplain::Mutex / MutexLock / CondVar) so clang's
     -Wthread-safety can see it.

R1b  unguarded-mutex: every `Mutex` member declared in src/ or tools/
     must be NAMED by at least one TSE_GUARDED_BY / TSE_PT_GUARDED_BY /
     TSE_REQUIRES / TSE_ACQUIRE / ... annotation argument in its
     header/source pair — a mutex no annotation references protects
     nothing the analysis can check. The check is scoped per class and
     per mutex name, not per file: `LineWriter::mu_` is not excused by
     an annotated `ConnectionSet::mu_` in the same file. Escape hatch
     for handshake-only mutexes (the guarded state is an atomic): a
     `lint:allow(unguarded-mutex)` comment on the declaration line or
     one of the two lines above it.

R2   storage-abort: no TSE_CHECK / TSE_CHECK_* / TSE_DCHECK tokens in
     src/storage/*.{h,cc} outside comments and string literals. Storage
     decodes untrusted bytes (snapshots, append logs, session logs); a
     corrupt file must surface as a StorageErrorCode, never abort the
     process.

R3   duplicate-bench-slug: EmitResult("literal"...) slugs must be unique
     across bench/*.cc — two benches writing the same slug silently
     overwrite each other in BENCH_*.json. Dynamically built slugs
     (StrFormat etc.) are skipped; uniqueness for those is the bench's
     own responsibility.

R4   duplicate-metric-name: GetCounter / GetGauge / GetHistogram
     string-literal metric names must appear at exactly one source
     location across src/ and tools/ — the metrics registry contract
     (src/common/metrics.h) is that grep finds THE single writer for
     any metric, and a second registration site of the same name (even
     the same kind) splits ownership; of a different kind it aborts at
     runtime. Dynamically built names are skipped, as in R3. Snapshot
     readers (FindCounter etc.) are unrestricted.

R5   unbounded-decode-alloc: in the decode surfaces (src/storage and
     src/common/json.{h,cc}), no `.resize(` / `.reserve(` / `new T[`
     whose size argument is a plain decoded variable. The argument must
     be derived from real input bytes (`.size()` / `sizeof` /
     `remaining()`), be a compile-time constant, or every identifier in
     it must be bounds-compared (or assigned from `.size()`) within the
     preceding 40 code lines. A decoded count that reaches an allocator
     unchecked turns a 20-byte file into a multi-gigabyte allocation.
     Escape hatch: `lint:allow(unbounded-decode-alloc)` on the line or
     one of the two lines above.

R6   unchecked-bytereader: in src/storage, a statement that calls a
     ByteReader Read* / AlignTo / Skip and discards the returned status
     (expression statement at the start of a line). Reader failure
     latches, but per-call results must feed the decode's ok-chain so
     failures stop consuming garbage. Escape hatch:
     `lint:allow(unchecked-bytereader)`.

R7   unregistered-history-metric: every string literal passed to
     MetricsHistory::TrackHistogramPercentiles across src/ and tools/
     must also appear as a GetHistogram registration literal somewhere
     in src/ or tools/ — tracking a name no histogram registers
     silently records nothing (the sampler only builds p50/p99 rings
     for names the registry's discovery pass actually yields), and a
     typo'd name would never be noticed. Dynamically built names are
     skipped, as in R3/R4.

Exit status: 0 when clean, 1 with one `RULE: file:line: message` line per
violation otherwise.

Known stripper limitations: an apostrophe preceded by an identifier
character is treated as a C++14 digit separator (1'000'000), which means
prefixed char literals (u8'x', L'x') are mis-lexed as code — the repo
does not use them. Raw string literals R"(...)", including the
delimited R"delim(...)delim" form, are recognized and blanked.
"""

import argparse
import os
import re
import sys

MUTEX_HEADER = os.path.join("src", "common", "mutex.h")
ALLOW_UNGUARDED = "lint:allow(unguarded-mutex)"

RAW_PRIMITIVE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock)\b")
LOCK_TYPES = ("lock_guard", "unique_lock", "scoped_lock")
# A Mutex member declaration: optionally `mutable`, the type, a name,
# optionally an initializer/attribute tail. Matches `Mutex mu_;` and
# `mutable Mutex mu;` but not `MutexLock ...` or `class ... Mutex {`.
MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:tsexplain::)?Mutex\s+(\w+)\s*;")
# An annotation use with its argument list captured, so R1b can check
# that a given mutex NAME is referenced (not just that some annotation
# exists somewhere in the file). `[^()]*` is enough: capability
# arguments in this repo are member names or `*ptr_mu` — never call
# expressions.
ANNOTATION_ARGS = re.compile(
    r"TSE_(?:PT_GUARDED_BY|GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
    r"TRY_ACQUIRE|EXCLUDES|ASSERT_CAPABILITY|RETURN_CAPABILITY|"
    r"ACQUIRED_BEFORE|ACQUIRED_AFTER)\s*\(([^()]*)\)")
CHECK_TOKEN = re.compile(r"\bTSE_D?CHECK(?:_[A-Z]+)?\b")
EMIT_LITERAL = re.compile(r'\bEmitResult\s*\(\s*"((?:[^"\\]|\\.)*)"')
# Matched against STRIPPED code (so comment mentions cannot fire), up to
# and including the opening quote; the literal body is then re-read from
# the raw text at the same offset (the stripper preserves offsets). The
# first argument may sit on the line after the call.
METRIC_CALL = re.compile(r'\bGet(?:Counter|Gauge|Histogram)\s*\(\s*"')
HISTOGRAM_CALL = re.compile(r'\bGetHistogram\s*\(\s*"')
TRACK_CALL = re.compile(r'\bTrackHistogramPercentiles\s*\(\s*"')
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')


RAW_STRING_PREFIX = re.compile(r"(?:^|[^A-Za-z0-9_])(?:u8|u|U|L)?R$")
# Raw string delimiter: up to 16 chars, no parens/backslash/whitespace.
RAW_STRING_DELIM = re.compile(r'[^()\\\s]{0,16}\(')


def strip_comments_and_strings(text):
    """Replaces comment bodies and string/char literal bodies with spaces,
    preserving line numbers (newlines survive). Handles C++14 digit
    separators (1'000'000) and raw strings R"delim(...)delim"; see the
    module docstring for the known limitations."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string? Look back for an R prefix (uR/u8R/UR/LR),
                # then skip to the matching )delim" with no escape
                # processing — that is the whole point of raw strings.
                if RAW_STRING_PREFIX.search(text[max(0, i - 4):i]):
                    m = RAW_STRING_DELIM.match(text, i + 1)
                    if m:
                        close = ")" + text[i + 1:m.end() - 1] + '"'
                        end = text.find(close, m.end())
                        if end != -1:
                            out.append('"')
                            for ch in text[i + 1:end + len(close)]:
                                out.append("\n" if ch == "\n" else " ")
                            i = end + len(close)
                            continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                # An apostrophe straight after an identifier character is
                # a C++14 digit separator (1'000'000), not a char
                # literal.
                if i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
                    out.append("'")
                    i += 1
                    continue
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def iter_files(root, rel_dirs, exts):
    for rel_dir in rel_dirs:
        base = os.path.join(root, rel_dir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if os.path.splitext(name)[1] in exts:
                    yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


def check_raw_primitives(root, violations):
    """R1a: raw std sync primitives outside the wrapper header."""
    for path in iter_files(root, ["src", "tools"], {".h", ".cc"}):
        rel = relpath(root, path)
        if rel == MUTEX_HEADER.replace(os.sep, "/"):
            continue
        with open(path, encoding="utf-8") as f:
            code = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if "#include" in line:
                continue
            m = RAW_PRIMITIVE.search(line)
            if m:
                if "condition" in m.group(1):
                    wrapper = "CondVar"
                elif m.group(1) in LOCK_TYPES:
                    wrapper = "MutexLock"
                else:
                    wrapper = "Mutex"
                violations.append(
                    ("raw-sync-primitive", rel, lineno,
                     "use tsexplain::%s from src/common/mutex.h instead of "
                     "std::%s (the std type carries no thread-safety "
                     "annotations)" % (wrapper, m.group(1))))


CLASS_KEYWORD = re.compile(r"\b(?:class|struct)\s+(\w+)")


def class_spans(code):
    """Returns [(name, body_start, body_end)] character-offset spans for
    each class/struct body in comment/string-stripped code. A forward
    declaration (`class Foo;`) has no body and is skipped; `enum class`
    matches harmlessly (an enum body declares no Mutex members)."""
    spans = []
    for m in CLASS_KEYWORD.finditer(code):
        j = m.end()
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j >= len(code) or code[j] == ";":
            continue
        depth, k = 0, j
        while k < len(code):
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        spans.append((m.group(1), j, k))
    return spans


def innermost_span(spans, offset):
    best = None
    for span in spans:
        _, a, b = span
        if a <= offset <= b and (best is None or b - a < best[2] - best[1]):
            best = span
    return best


def check_unguarded_mutexes(root, violations):
    """R1b: every Mutex member must be NAMED by an annotation argument
    within its own class, or on a `ClassName::`-qualified definition in
    the pair file. Scoped per class AND per name: neither an annotated
    sibling class in the same file nor a same-named mutex in another
    class excuses an unannotated member."""
    for path in iter_files(root, ["src", "tools"], {".h", ".cc"}):
        rel = relpath(root, path)
        if rel == MUTEX_HEADER.replace(os.sep, "/"):
            continue
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        code = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        # Character offset of the start of each 1-based line.
        line_offsets = [0]
        for line in code.splitlines(True):
            line_offsets.append(line_offsets[-1] + len(line))
        spans = class_spans(code)
        members = []
        for lineno, line in enumerate(code.splitlines(), 1):
            m = MUTEX_MEMBER.match(line)
            if not m:
                continue
            window = raw_lines[max(0, lineno - 3):lineno]
            if any(ALLOW_UNGUARDED in w for w in window):
                continue
            members.append((lineno, m.group(1)))
        if not members:
            continue
        # Names referenced by annotation arguments, bucketed by the
        # innermost class body the annotation sits in (None = file
        # scope). `mu_` and `*engines_mu` count for every identifier
        # component.
        refs_by_span = {}
        for m in ANNOTATION_ARGS.finditer(code):
            span = innermost_span(spans, m.start())
            refs_by_span.setdefault(span, set()).update(
                re.findall(r"\w+", m.group(1)))
        # Pair file: an annotation on a `ClassName::`-qualified
        # out-of-line definition counts for that class; unqualified ones
        # count at file scope.
        refs_by_class_name = {}
        pair_file_refs = set()
        stem, ext = os.path.splitext(path)
        other = stem + (".cc" if ext == ".h" else ".h")
        if os.path.exists(other):
            with open(other, encoding="utf-8") as f:
                pair_code = strip_comments_and_strings(f.read())
            for m in ANNOTATION_ARGS.finditer(pair_code):
                names = set(re.findall(r"\w+", m.group(1)))
                line_start = pair_code.rfind("\n", 0, m.start()) + 1
                qualifiers = re.findall(
                    r"(\w+)::", pair_code[line_start:m.start()])
                if qualifiers:
                    for cls in qualifiers:
                        refs_by_class_name.setdefault(cls, set()).update(
                            names)
                else:
                    pair_file_refs.update(names)
        for lineno, name in members:
            span = innermost_span(spans, line_offsets[lineno - 1])
            refs = set(refs_by_span.get(None, set())) | pair_file_refs
            if span is not None:
                refs |= refs_by_span.get(span, set())
                refs |= refs_by_class_name.get(span[0], set())
            else:
                # Namespace-scope / local mutex: no class to scope by;
                # fall back to any annotation in the pair naming it.
                for span_refs in refs_by_span.values():
                    refs |= span_refs
                for cls_refs in refs_by_class_name.values():
                    refs |= cls_refs
            if name in refs:
                continue
            violations.append(
                ("unguarded-mutex", rel, lineno,
                 "Mutex member '%s'%s is not named by any TSE_GUARDED_BY / "
                 "TSE_REQUIRES / TSE_ACQUIRE annotation in its class in %s "
                 "or its pair; annotate what it guards or mark the "
                 "declaration %s" % (
                     name, " of class '%s'" % span[0] if span else "",
                     rel, ALLOW_UNGUARDED)))


def check_storage_aborts(root, violations):
    """R2: untrusted-input decode paths must not abort."""
    for path in iter_files(root, [os.path.join("src", "storage")],
                           {".h", ".cc"}):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            code = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = CHECK_TOKEN.search(line)
            if m:
                violations.append(
                    ("storage-abort", rel, lineno,
                     "%s in a storage decode path: corrupt input must "
                     "return a StorageErrorCode, not abort" % m.group(0)))


def check_bench_slugs(root, violations):
    """R3: EmitResult string-literal slugs unique across bench/*.cc."""
    seen = {}
    for path in iter_files(root, ["bench"], {".cc"}):
        rel = relpath(root, path)
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read()
        except FileNotFoundError:
            continue
        code = strip_comments_and_strings(raw)
        # Literals were blanked by the stripper; re-scan the raw text but
        # only at positions the stripper kept as code-or-string starts.
        for lineno, line in enumerate(raw.splitlines(), 1):
            stripped = code.splitlines()[lineno - 1] if lineno <= len(
                code.splitlines()) else ""
            if "EmitResult" not in stripped:
                continue
            for m in EMIT_LITERAL.finditer(line):
                slug = m.group(1)
                # A literal that is immediately concatenated or formatted
                # is a dynamic prefix, not the full slug: skip it.
                tail = line[m.end():]
                if tail.lstrip().startswith("+") or slug.count("%") > 0:
                    continue
                if slug in seen:
                    prev_rel, prev_line = seen[slug]
                    violations.append(
                        ("duplicate-bench-slug", rel, lineno,
                         "EmitResult slug '%s' already used at %s:%d; slugs "
                         "must be unique or BENCH json rows overwrite each "
                         "other" % (slug, prev_rel, prev_line)))
                else:
                    seen[slug] = (rel, lineno)


def check_metric_names(root, violations):
    """R4: Get{Counter,Gauge,Histogram} literal names unique across
    src/ and tools/."""
    seen = {}
    for path in iter_files(root, ["src", "tools"], {".h", ".cc"}):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        code = strip_comments_and_strings(raw)
        for m in METRIC_CALL.finditer(code):
            # Re-read the (blanked) literal body from the raw text at the
            # opening quote's offset.
            lm = STRING_LITERAL.match(raw, m.end() - 1)
            if not lm:
                continue
            name = lm.group(1)
            # A concatenated or formatted literal is a dynamic prefix,
            # not the full metric name: skip it (R3's rule).
            if raw[lm.end():lm.end() + 8].lstrip().startswith("+") or \
                    name.count("%") > 0:
                continue
            lineno = code.count("\n", 0, m.start()) + 1
            if name in seen:
                prev_rel, prev_line = seen[name]
                violations.append(
                    ("duplicate-metric-name", rel, lineno,
                     "metric '%s' already registered at %s:%d; each "
                     "metric name must have exactly one registration "
                     "site (cache the reference in a *Metrics struct "
                     "and share it)" % (name, prev_rel, prev_line)))
            else:
                seen[name] = (rel, lineno)


def _literal_names(raw, code, call_re):
    """Yields (name, lineno) for each `call_re` whose first argument is a
    complete string literal (concatenated / %-formatted names are dynamic
    prefixes and are skipped, as in R3/R4)."""
    for m in call_re.finditer(code):
        lm = STRING_LITERAL.match(raw, m.end() - 1)
        if not lm:
            continue
        name = lm.group(1)
        if raw[lm.end():lm.end() + 8].lstrip().startswith("+") or \
                name.count("%") > 0:
            continue
        yield name, code.count("\n", 0, m.start()) + 1


def check_history_metrics(root, violations):
    """R7: TrackHistogramPercentiles names must have a GetHistogram
    registration site somewhere in src/ or tools/."""
    registered = set()
    tracked = []  # (name, rel, lineno)
    for path in iter_files(root, ["src", "tools"], {".h", ".cc"}):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        code = strip_comments_and_strings(raw)
        for name, _ in _literal_names(raw, code, HISTOGRAM_CALL):
            registered.add(name)
        for name, lineno in _literal_names(raw, code, TRACK_CALL):
            tracked.append((name, rel, lineno))
    for name, rel, lineno in tracked:
        if name in registered:
            continue
        violations.append(
            ("unregistered-history-metric", rel, lineno,
             "TrackHistogramPercentiles('%s') has no GetHistogram "
             "registration site in src/ or tools/: the sampler only "
             "builds p50/p99 rings for histograms the registry "
             "actually yields, so this tracking records nothing" %
             name))


ALLOW_UNBOUNDED_ALLOC = "lint:allow(unbounded-decode-alloc)"
ALLOW_UNCHECKED_READER = "lint:allow(unchecked-bytereader)"

# Decode-surface allocation sites: member resize/reserve calls and array
# news, matched against stripped code.
ALLOC_CALL = re.compile(r"(?:\.|->)(?:resize|reserve)\s*\(")
ARRAY_NEW = re.compile(r"\bnew\s+[\w:<>, ]+?\s*\[")
# Identifiers that are types/casts/qualifiers, not runtime values.
ALLOC_NONVALUE_IDENTS = frozenset({
    "static_cast", "reinterpret_cast", "const_cast", "size_t", "ptrdiff_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t",
    "int32_t", "int64_t", "char", "short", "int", "long", "unsigned",
    "signed", "float", "double", "bool", "const", "std", "size", "min",
    "max", "sizeof", "true", "false", "nullptr",
})
# A bounds comparison adjacent to an identifier (lookbehind window). The
# negative lookaheads keep shifts and stream operators from counting.
COMPARISON_OPS = r"(?:>=|<=|==|!=|>(?!>)|<(?!<))"

# ByteReader declarations (locals, parameters, members) — the receivers
# R6 tracks. `[&*]?` covers reference/pointer parameters.
BYTEREADER_DECL = re.compile(r"\bByteReader\s*[&*]?\s*(\w+)\b")
# A statement-initial reader call whose status result is discarded: the
# line starts with `<name>.Read…(` / `.AlignTo(` / `.Skip(`. Assigned or
# tested results (`ok = ok && r.ReadU32(…)`, `if (!r.Skip(n))`) start
# mid-line and do not match.
READER_DISCARD = re.compile(r"^\s*(\w+)\.(Read\w+|AlignTo|Skip)\s*\(")


def balanced_args(code, open_paren, close="()"):
    """Returns code[open_paren+1:matching_close] or None if unbalanced."""
    depth, k = 0, open_paren
    while k < len(code):
        if code[k] == close[0]:
            depth += 1
        elif code[k] == close[1]:
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:k]
        k += 1
    return None


def alloc_arg_is_bounded(arg, code_lines, lineno):
    """True when an allocation-size argument is already input-derived,
    constant, or every identifier in it was bounds-checked (or assigned
    from `.size()`) in the preceding 40 code lines."""
    if ".size(" in arg or "sizeof" in arg or ".remaining(" in arg:
        return True
    # `meta->nbuckets` is bounded by a check on `nbuckets`: drop member
    # access object prefixes so only the field name needs a bound.
    collapsed = re.sub(r"\b\w+\s*(?:->|\.)\s*", "", arg)
    idents = set(re.findall(r"[A-Za-z_]\w*", collapsed)) - ALLOC_NONVALUE_IDENTS
    if not idents:
        return True  # compile-time constant
    window = "\n".join(code_lines[max(0, lineno - 41):lineno])
    for ident, esc in ((i, re.escape(i)) for i in sorted(idents)):
        checked = re.search(
            r"(?:\b%s\b\s*%s|%s\s*=?\s*\b%s\b)" % (
                esc, COMPARISON_OPS, COMPARISON_OPS, esc), window)
        # Assigned from input-derived quantities (`n = buf.size() / 8`).
        # `=[^=]` keeps `==` comparisons from matching as assignments.
        derived = re.search(
            r"\b%s\b\s*=[^=;\n][^;\n]*(?:\.size\(|\.remaining\(|sizeof)"
            % esc, window)
        if not checked and not derived:
            return False
    return True


def check_unbounded_decode_allocs(root, violations):
    """R5: decoded counts must be bounds-checked before they size an
    allocation."""
    scoped = [os.path.join("src", "storage")]
    files = list(iter_files(root, scoped, {".h", ".cc"}))
    for name in ("json.h", "json.cc"):
        path = os.path.join(root, "src", "common", name)
        if os.path.exists(path):
            files.append(path)
    for path in files:
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        code = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        code_lines = code.splitlines()
        for kind, pattern in (("call", ALLOC_CALL), ("new", ARRAY_NEW)):
            for m in pattern.finditer(code):
                if kind == "call":
                    arg = balanced_args(code, m.end() - 1)
                else:
                    arg = balanced_args(code, m.end() - 1, "[]")
                if arg is None:
                    continue
                lineno = code.count("\n", 0, m.start()) + 1
                window = raw_lines[max(0, lineno - 3):lineno]
                if any(ALLOW_UNBOUNDED_ALLOC in w for w in window):
                    continue
                if alloc_arg_is_bounded(arg, code_lines, lineno):
                    continue
                violations.append(
                    ("unbounded-decode-alloc", rel, lineno,
                     "allocation sized by '%s' with no preceding bound "
                     "check: validate a decoded count against the real "
                     "input size (e.g. reader.remaining()) before "
                     "allocating, or mark the line %s" % (
                         " ".join(arg.split()), ALLOW_UNBOUNDED_ALLOC)))


def check_unchecked_bytereader(root, violations):
    """R6: ByteReader call statuses must be consumed."""
    for path in iter_files(root, [os.path.join("src", "storage")],
                           {".h", ".cc"}):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        code = strip_comments_and_strings(raw)
        readers = set(BYTEREADER_DECL.findall(code))
        if not readers:
            continue
        raw_lines = raw.splitlines()
        for lineno, line in enumerate(code.splitlines(), 1):
            m = READER_DISCARD.match(line)
            if not m or m.group(1) not in readers:
                continue
            window = raw_lines[max(0, lineno - 3):lineno]
            if any(ALLOW_UNCHECKED_READER in w for w in window):
                continue
            violations.append(
                ("unchecked-bytereader", rel, lineno,
                 "discarded status of %s.%s(): feed every ByteReader "
                 "result into the decode's ok-chain (failure must stop "
                 "the parse), or mark the line %s" % (
                     m.group(1), m.group(2), ALLOW_UNCHECKED_READER)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root to lint (default: cwd)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    violations = []
    check_raw_primitives(root, violations)
    check_unguarded_mutexes(root, violations)
    check_storage_aborts(root, violations)
    check_bench_slugs(root, violations)
    check_metric_names(root, violations)
    check_history_metrics(root, violations)
    check_unbounded_decode_allocs(root, violations)
    check_unchecked_bytereader(root, violations)

    for rule, rel, lineno, message in violations:
        print("%s: %s:%d: %s" % (rule, rel, lineno, message))
    if violations:
        print("lint_invariants: %d violation(s)" % len(violations),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
