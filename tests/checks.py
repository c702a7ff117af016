"""Test-side rendering of verify.CheckResult."""


def check_line(result) -> str:
    """A check as one PASS/FAIL line; a failure carries its details."""
    status = "PASS" if result.passed else "FAIL"
    extra = f"  [{result.details}]" if result.details and not result.passed else ""
    return f"{status}  {result.name}{extra}"
