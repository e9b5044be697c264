# Injected into the product's own configure by run.sh:
#
#   cmake -S . -B build-bench -DCMAKE_PROJECT_umon_INCLUDE=<abs>/bench/pipeline/hook.cmake
#
# CMake includes this file at the end of `project(umon ...)`, before any
# umon_* library exists, so it only schedules targets.cmake to run once the
# top-level CMakeLists.txt has finished. The deferred file then sees every
# product target and the product's compile flags, and the product's build
# files need no edit to host the benchmark. (A deferred add_subdirectory is
# rejected by CMake; a deferred include is accepted.) Arguments of a
# deferred call expand when it runs, hence the variable.
set(UMON_PIPELINE_BENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${UMON_PIPELINE_BENCH_DIR}/targets.cmake")
