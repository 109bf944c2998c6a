#!/usr/bin/env python3
"""Fails when a workspace package declares a dependency it never names.

For every package of the workspace outside `vendor/` (the root package
and each `crates/*`), every key of `[dependencies]`, `[dev-dependencies]`
and `[build-dependencies]` must appear, as the crate name with `-`
spelled `_`, somewhere in the package's own `.rs` files (sources, tests,
examples, benches, doc links). Nested packages and `target/` are not
part of a package's files. Run from anywhere inside the repository.
"""
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SECTIONS = ("dependencies", "dev-dependencies", "build-dependencies")


def package_dirs():
    workspace = tomllib.loads((ROOT / "Cargo.toml").read_text())["workspace"]
    dirs = [ROOT]
    for pattern in workspace["members"]:
        if pattern.startswith("vendor/"):
            continue
        dirs += sorted(p.parent for p in ROOT.glob(pattern + "/Cargo.toml"))
    return dirs


def rust_sources(pkg):
    """The package's `.rs` files, without nested packages or `target/`."""
    files, stack = [], [pkg]
    while stack:
        d = stack.pop()
        for entry in sorted(d.iterdir()):
            if entry.is_dir():
                if entry.name != "target" and not (entry / "Cargo.toml").exists():
                    stack.append(entry)
            elif entry.suffix == ".rs":
                files.append(entry)
    return files


def main():
    unused = []
    for pkg in package_dirs():
        manifest = tomllib.loads((pkg / "Cargo.toml").read_text())
        text = "\n".join(f.read_text() for f in rust_sources(pkg))
        for section in SECTIONS:
            for dep in manifest.get(section, {}):
                if not re.search(r"\b%s\b" % re.escape(dep.replace("-", "_")), text):
                    unused.append("%s: %s `%s`" % (pkg.relative_to(ROOT) or ".", section, dep))
    for line in unused:
        print("unused dependency: " + line)
    if unused:
        sys.exit("%d declared dependencies are never named in their package's code" % len(unused))
    print("dependencies: every declared edge is named in its package's code")


if __name__ == "__main__":
    main()
