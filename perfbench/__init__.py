"""The repository's benchmark: host time of the Native Offloader, end to
end and layer by layer (README.md in this directory)."""
