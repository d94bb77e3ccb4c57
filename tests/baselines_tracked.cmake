# Fails when a bench/*.baseline.json path that .github/workflows/ci.yml
# names is not tracked by git: a perf gate must never point at a file that
# exists only on the machine that generated it.  Prints "SKIP:" and passes
# outside a git checkout of SOURCE_DIR (e.g. a source tarball), where there
# is nothing to check.
#
#   cmake -DSOURCE_DIR=<repository root> -P tests/baselines_tracked.cmake

execute_process(
  COMMAND git -C "${SOURCE_DIR}" rev-parse --show-toplevel
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE top
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(rc EQUAL 0)
  get_filename_component(top "${top}" REALPATH)
  get_filename_component(root "${SOURCE_DIR}" REALPATH)
endif()
if(NOT rc EQUAL 0 OR NOT top STREQUAL root)
  message(STATUS "SKIP: ${SOURCE_DIR} is not the root of a git checkout")
  return()
endif()

file(READ "${SOURCE_DIR}/.github/workflows/ci.yml" ci)
string(REGEX MATCHALL "bench/[A-Za-z0-9_.-]+\\.baseline\\.json" baselines
       "${ci}")
list(REMOVE_DUPLICATES baselines)
if(NOT baselines)
  message(FATAL_ERROR "ci.yml names no bench/*.baseline.json file")
endif()

set(untracked "")
foreach(path IN LISTS baselines)
  execute_process(
    COMMAND git -C "${SOURCE_DIR}" ls-files --error-unmatch -- "${path}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    list(APPEND untracked "${path}")
  endif()
endforeach()
if(untracked)
  string(REPLACE ";" ", " untracked "${untracked}")
  message(FATAL_ERROR
    "ci.yml gates against baselines git does not track: ${untracked}.  "
    "Regenerate each from a Release build (scripts/check_perf.py prints "
    "the command when run against the missing file) and commit it.")
endif()
list(LENGTH baselines count)
message(STATUS "${count} baselines named in ci.yml are tracked")
