"""Small shared utilities: statistics, table rendering."""
