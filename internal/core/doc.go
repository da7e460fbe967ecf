package core

// This file documents the coverage of the C++17 parallel-STL surface
// (the algorithms accepting execution policies, paper Table 1) by this
// package. Function names follow Go conventions; the mapping is:
//
//	C++ algorithm               Go function(s)
//	-------------------------   -----------------------------------------
//	adjacent_difference         AdjacentDifference
//	adjacent_find               AdjacentFind
//	all_of / any_of / none_of   AllOf / AnyOf / NoneOf
//	copy / copy_n               Copy / CopyN
//	copy_if                     CopyIf
//	count / count_if            Count / CountIf
//	equal                       Equal / EqualFunc
//	exclusive_scan              ExclusiveScan
//	fill / fill_n               Fill / FillN
//	find / find_if /
//	  find_if_not               Find / FindIf / FindIfNot
//	find_end / find_first_of    FindEnd / FindFirstOf
//	for_each / for_each_n       ForEach / ForEachIndex / ForEachN
//	generate / generate_n       Generate / GenerateN
//	includes                    Includes
//	inclusive_scan              InclusiveScan / InclusiveSum
//	inplace_merge               InplaceMerge
//	is_heap / is_heap_until     IsHeap / IsHeapUntil
//	is_partitioned              IsPartitioned
//	is_sorted / is_sorted_until IsSorted / IsSortedUntil
//	lexicographical_compare     LexicographicalCompare
//	max_element / min_element   MaxElement / MinElement
//	minmax_element              MinMaxElement
//	merge                       Merge
//	mismatch                    Mismatch / MismatchFunc
//	move                        Copy (Go assigns; there is no move)
//	nth_element                 NthElement
//	partial_sort (+_copy)       PartialSort / PartialSortCopy
//	partition (+_copy)          Partition / PartitionCopy
//	partition_point             PartitionPoint
//	reduce                      Reduce / Sum
//	remove / remove_if          Remove / RemoveIf
//	remove_copy_if              RemoveCopyIf
//	replace / replace_if        Replace / ReplaceIf
//	replace_copy                ReplaceCopy
//	reverse / reverse_copy      Reverse / ReverseCopy
//	rotate / rotate_copy        Rotate / RotateCopy
//	search / search_n           Search / SearchN
//	set_difference etc.         SetDifference / SetIntersection /
//	                            SetSymmetricDifference / SetUnion
//	sort / stable_sort          Sort / SortFunc / StableSort
//	stable_partition            StablePartition
//	swap_ranges                 SwapRanges
//	transform                   Transform / TransformBinary
//	transform_exclusive_scan    TransformExclusiveScan
//	transform_inclusive_scan    TransformInclusiveScan
//	transform_reduce            TransformReduce / TransformReduceBinary
//	unique                      Unique
//
// Not applicable in Go (no raw-memory object lifetimes): destroy,
// destroy_n, uninitialized_*. Go's garbage-collected slices make these
// no-ops; callers simply allocate with make.
