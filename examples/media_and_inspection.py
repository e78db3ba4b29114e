"""Non-text content indexing and dataspace inspection.

* similarity search over pseudo-images with the histogram content index
  (the QBIC-style index the paper cites as a non-text content index);
* DOT / GraphML export of resource view graphs.

Run:  python examples/media_and_inspection.py
"""

from repro.core.graph import to_dot, to_graphml
from repro.facade import Dataspace
from repro.rvm import IndexingPolicy
from repro.vfs import VirtualFileSystem


def fake_image(palette: str, size: int = 800) -> str:
    """A pseudo-image: non-printable symbols drawn from a palette."""
    return "".join(palette[i % len(palette)] for i in range(size))


fs = VirtualFileSystem()
fs.mkdir("/Pictures", parents=True)
fs.write_file("/Pictures/sunset_beach.jpg", fake_image("\x01\x02\x03"))
fs.write_file("/Pictures/sunset_hills.jpg", fake_image("\x01\x02\x03\x02"))
fs.write_file("/Pictures/forest_walk.jpg", fake_image("\x08\x09\x0a"))
fs.write_file("/Pictures/forest_creek.jpg", fake_image("\x08\x0a\x09"))
fs.write_file("/notes.txt", "picture trip notes")

ds = Dataspace(vfs=fs, policy=IndexingPolicy.with_media())
ds.sync()

print("=" * 70)
print("Histogram similarity over non-text content components")
print("=" * 70)
media = ds.rvm.indexes.media_index
print(f"indexed {len(media)} pseudo-images "
      "(text files go to the full-text index instead)")
for probe in ("fs:///Pictures/sunset_beach.jpg",
              "fs:///Pictures/forest_walk.jpg"):
    neighbors = media.similar_to_key(probe, k=2)
    print(f"\nmost similar to {probe.rsplit('/', 1)[-1]}:")
    for uri, score in neighbors:
        print(f"  {score:.3f}  {uri.rsplit('/', 1)[-1]}")

print()
print("=" * 70)
print("Graph export")
print("=" * 70)
pictures = ds.rvm.view("fs:///Pictures")
dot = to_dot(pictures)
graphml = to_graphml(pictures)
print(f"DOT export: {len(dot.splitlines())} lines "
      f"(render with `dot -Tpng`)")
print(f"GraphML export: {len(graphml.splitlines())} lines "
      "(open in yEd/Gephi)")
print("\nDOT preview:")
print("\n".join(dot.splitlines()[:8]) + "\n  ...")
