"""The one CSV writer: ``verify``, ``analyze``, the profile maps and the scan CSV
all write through ``save_csv``, so their number formats cannot drift apart."""


def save_csv(path, header: str, rows) -> None:
    """ASCII CSV: the header line, then one line per row; floats as their repr."""
    lines = [header]
    lines.extend(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) for row in rows
    )
    lines.append("")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
