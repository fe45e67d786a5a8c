"""Unit tests of tools/code_lines.py: line classes and counts from git."""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import code_lines  # noqa: E402


class ClassifyTest(unittest.TestCase):
    def test_cpp_comments_strings_and_digit_separators(self):
        lines = [
            "int a = 1;  // trailing comment: code",
            "// whole-line comment",
            "",
            "/* block starts",
            "   still inside",
            "",
            "   ends */",
            "/* one line */ int b = 2;",
            'const char* s = "// not a comment";',
            "std::size_t n = 2'359'296; // separators",
            "char c = '/'; /* a char, then a comment */",
            "   \t",
        ]
        self.assertEqual(code_lines.classify_c(lines), [
            "code", "comment", "blank", "comment", "comment", "blank",
            "comment", "code", "code", "code", "code", "blank"])

    def test_hash_comments_by_file_type(self):
        text = "# comment\nx = 1  # code\n\n    # indented comment\n"
        self.assertEqual(code_lines.classify("tools/a.py", text),
                         ["comment", "code", "blank", "comment"])
        self.assertEqual(code_lines.classify("CMakeLists.txt", "# c\nx\n"),
                         ["comment", "code"])
        # No comment syntax known: every non-blank line is code.
        self.assertEqual(code_lines.classify("docs/a.md", "# title\n\n"),
                         ["code", "blank"])

    def test_hunk_headers(self):
        diff = ("diff --git a/f b/f\n@@ -3,2 +3 @@ ctx\n-x\n-y\n+z\n"
                "@@ -10,0 +9,2 @@\n+p\n+q\n@@ -20 +21,0 @@\n-r\n")
        self.assertEqual(code_lines.changed_lines(diff),
                         ([3, 4, 20], [3, 9, 10]))


class CountTest(unittest.TestCase):
    def test_counts_against_a_revision_and_the_work_tree(self):
        with tempfile.TemporaryDirectory() as root:
            def git(*args):
                subprocess.run(("git", "-c", "user.name=t",
                                "-c", "user.email=t@t") + args,
                               cwd=root, check=True, capture_output=True)

            def write(name, text):
                with open(os.path.join(root, name), "w") as f:
                    f.write(text)

            git("init", "-q")
            write("a.cpp", "int a;\n// old comment\nint b;\n\nint c;\n")
            write("gone.py", "x = 1\n# note\n")
            git("add", ".")
            git("commit", "-q", "-m", "base")
            # One code line and the comment replaced, a blank dropped.
            write("a.cpp", "int a;\n/* new\n   comment */\nint b2;\nint c;\n")
            git("rm", "-q", "gone.py")
            git("commit", "-q", "-a", "-m", "change")
            write("new.cpp", "// header\nint d;\n")  # untracked

            cwd = os.getcwd()
            os.chdir(root)
            try:
                committed = code_lines.count("HEAD~1", "HEAD", ["."])
                tree = code_lines.count("HEAD~1", None, ["."])
            finally:
                os.chdir(cwd)

        self.assertEqual(committed, {
            "a.cpp": {"code": [1, 1], "comment": [2, 1], "blank": [0, 1]},
            "gone.py": {"code": [0, 1], "comment": [0, 1], "blank": [0, 0]},
        })
        self.assertEqual(tree["new.cpp"],
                         {"code": [1, 0], "comment": [1, 0], "blank": [0, 0]})
        self.assertEqual(tree["a.cpp"], committed["a.cpp"])
        table = code_lines.report(committed).splitlines()
        self.assertEqual(table[-1].split(), ["total", "1", "2", "-1", "2",
                                             "2", "0", "1"])


if __name__ == "__main__":
    unittest.main()
