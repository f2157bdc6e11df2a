"""Analysis: the §3.4 analytic latency model and paper-vs-measured reports."""
