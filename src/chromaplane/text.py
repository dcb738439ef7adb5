"""The package's print format: every table and record goes through here.

CSV is a header line of the field names and one line per row. A float
prints with 9 significant digits, enough to separate every constant the
package produces; None prints as an empty cell and anything else through
str. JSON is indented by 2 and prints Python's shortest repr that
round-trips (for example "eps": 4.8e-07). Both end in a newline.
"""
import json


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def json_text(value) -> str:
    return json.dumps(value, indent=2) + "\n"


def table_text(fields, rows, fmt: str = "csv") -> str:
    """Rows of values in field order: CSV lines, or a JSON array of objects."""
    if fmt == "json":
        return json_text([dict(zip(fields, row)) for row in rows])
    return "".join(",".join(map(_cell, line)) + "\n" for line in [fields, *rows])


def record_text(record: dict, fmt: str = "csv") -> str:
    """One record: a CSV header of its keys and one row, or a JSON object."""
    if fmt == "json":
        return json_text(record)
    return table_text(list(record), [record.values()])
