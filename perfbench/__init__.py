"""Closed-loop benchmark of the PDW reproduction; see WORKLOADS.md."""
