"""flowlab: offline flow metering and leakage-safe traffic classification."""

__version__ = "0.1.0"

# by Path, the SHA-256 (hex) of the bytes a reader (dataset.read_text,
# Dataset.from_csv, pcap.parse_capture) last parsed of a file, and that
# dataset.write_text last wrote to it: the stage manifests' digests
read_digests: dict = {}
written_digests: dict = {}
