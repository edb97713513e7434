// A node binary that exits 1 at once, whatever its flags: the fleet tests
// use it to drive the supervisor's handling of a node that exits on its own.
int main() { return 1; }
