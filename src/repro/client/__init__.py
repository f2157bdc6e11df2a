"""Client-side machinery: closed-loop clients and workload generators."""
