"""Regenerate the want column of cpython.txt from CPython.

Run from internal/pyexpr:  python3 testdata/gen_cpython.py testdata/cpython.txt

Each row is SOURCE<TAB>WANT. A source containing the marker "⏎" is a
statement block (the marker stands for a newline) whose return value is the
result; any other source is one expression. WANT is the repr of the result,
or "!Type" when evaluation raises Type. Rows whose WANT starts with "~" are
the subset's deliberate divergences from CPython and are kept as written.
"""
import sys

NL = "⏎"


def run(src):
    if NL in src:
        lines = src.split(NL)
        code = "def __row__():\n" + "".join("    " + l + "\n" for l in lines) + "    pass\n"
        scope = {}
        exec(compile(code, "<row>", "exec"), scope)
        return scope["__row__"]()
    return eval(compile(src.strip(), "<row>", "eval"), {})


def want(src):
    try:
        return repr(run(src))
    except SyntaxError:
        return "!SyntaxError"
    except Exception as e:  # noqa: BLE001 - the type is the answer
        return "!" + type(e).__name__


def main(path):
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#") or "\t" not in line:
                out.append(line)
                continue
            src, old = line.split("\t", 1)
            out.append(line if old.startswith("~") else src + "\t" + want(src))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
