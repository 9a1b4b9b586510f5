package backup

// AssemblyWidth exposes the restore's assembly width to the external tests.
var AssemblyWidth = assemblyWidth
