"""End-to-end benchmark of the HADFL simulator (see LAYERS.md)."""
