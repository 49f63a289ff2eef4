"""Minimal TOML writer for experiment configs; configs are read by tomllib.

Writes [dotted.section] headers and key = value lines with strings,
numbers, booleans and flat arrays. Output is deterministic (sorted keys),
and tomllib.loads(dump(cfg)) == cfg for every config the package emits.
"""

from __future__ import annotations

from typing import Any, Dict, List


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dump(cfg: Dict[str, Any]) -> str:
    lines: List[str] = []

    def emit(prefix: str, table: Dict[str, Any]):
        scalars = {k: v for k, v in table.items() if not isinstance(v, dict)}
        subs = {k: v for k, v in table.items() if isinstance(v, dict)}
        if prefix and (scalars or not subs):
            lines.append(f"[{prefix}]")
        for k in sorted(scalars):
            v = scalars[k]
            if isinstance(v, list):
                body = ", ".join(_fmt_scalar(x) for x in v)
                lines.append(f"{k} = [{body}]")
            else:
                lines.append(f"{k} = {_fmt_scalar(v)}")
        if scalars:
            lines.append("")
        for k in sorted(subs):
            emit(f"{prefix}.{k}" if prefix else k, subs[k])

    emit("", cfg)
    return "\n".join(lines).rstrip() + "\n"
