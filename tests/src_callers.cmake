# Fails when a header under src/ has no #include outside tests/: production
# library code must have a production caller.  A header counts as used when
# some file under src/, tools/, bench/, examples/ or perfbench/ includes it,
# other than the .cpp of the same name next to it.  The failure names every
# unused header.
#
#   cmake -DSOURCE_DIR=<repository root> -P tests/src_callers.cmake

cmake_minimum_required(VERSION 3.16)  # IN_LIST

# Headers kept without a production includer, each with its reason.
set(allowed
  # The Lemma-1 lower bound on mandatory deadline misses: the oracle the
  # RTT optimality property tests hold rtt_decompose to.
  curves/analysis.h
)

file(GLOB_RECURSE headers RELATIVE "${SOURCE_DIR}/src" "${SOURCE_DIR}/src/*.h")
set(callers "")
foreach(dir src tools bench examples perfbench)
  file(GLOB_RECURSE files RELATIVE "${SOURCE_DIR}"
       "${SOURCE_DIR}/${dir}/*.h" "${SOURCE_DIR}/${dir}/*.cpp")
  list(APPEND callers ${files})
endforeach()
if(NOT headers OR NOT callers)
  message(FATAL_ERROR "no headers or callers found under ${SOURCE_DIR}")
endif()

set(used "")
foreach(file IN LISTS callers)
  file(STRINGS "${SOURCE_DIR}/${file}" lines
       REGEX "^[ \t]*#[ \t]*include[ \t]*\"[^\"]+\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*" "\\1"
           header "${line}")
    string(REGEX REPLACE "\\.h$" ".cpp" own_cpp "src/${header}")
    if(NOT file STREQUAL own_cpp)
      list(APPEND used "${header}")
    endif()
  endforeach()
endforeach()

set(unused "")
foreach(header IN LISTS headers)
  if(NOT header IN_LIST used AND NOT header IN_LIST allowed)
    list(APPEND unused "src/${header}")
  endif()
endforeach()
if(unused)
  string(REPLACE ";" ", " unused "${unused}")
  message(FATAL_ERROR
    "headers only tests include: ${unused}.  Give each a caller outside "
    "tests/ or delete it with its tests.")
endif()
list(LENGTH headers count)
message(STATUS "all ${count} headers under src/ have a caller outside tests/")
